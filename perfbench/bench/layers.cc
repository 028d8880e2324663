#include "bench/layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench/traffic.h"
#include "conf/space.h"
#include "dac/collector.h"
#include "dac/modeler.h"
#include "dac/searcher.h"
#include "support/random.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration<double>(t - t0).count();
}

/**
 * The m training sizes of one datasize band, computed as the service
 * computes them (service.cc, bandTrainingSizes): geometric across
 * [0.8 * 2^band, 1.25 * 2^(band+1)] with a spacing ratio of at least
 * 1.12.
 */
std::vector<double>
bandTrainingSizes(int band, size_t m)
{
    const double lo = 0.8 * std::ldexp(1.0, band);
    const double hi = 1.25 * std::ldexp(1.0, band + 1);
    if (m == 1)
        return {std::sqrt(lo * hi)};
    const double ratio = std::max(
        std::pow(hi / lo, 1.0 / static_cast<double>(m - 1)), 1.12);
    std::vector<double> sizes;
    double size = lo;
    for (size_t i = 0; i < m; ++i, size *= ratio)
        sizes.push_back(size);
    return sizes;
}

/** Request ids of probe spans start here, clear of wire request ids. */
constexpr uint64_t kProbeIdBase = uint64_t{1} << 32;

} // namespace

uint32_t
SpanLog::add(uint64_t request_id, uint32_t parent, std::string name,
             double start_sec, double end_sec)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto id = static_cast<uint32_t>(spans.size() + 1);
    spans.push_back(
        {request_id, id, parent, std::move(name), start_sec, end_sec});
    return id;
}

bool
SpanLog::writeJsonLines(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream out(path);
    char line[256];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof line,
                      "{\"rid\":%llu,\"id\":%u,\"parent\":%u,"
                      "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                      static_cast<unsigned long long>(s.requestId), s.id,
                      s.parent, s.name.c_str(), s.startSec * 1e6,
                      (s.endSec - s.startSec) * 1e6);
        out << line;
    }
    return static_cast<bool>(out);
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

BuildProbe
probeBuilds(const dac::sparksim::SparkSimulator &sim,
            const std::vector<dac::service::ModelKey> &keys,
            const dac::service::ServiceOptions &options,
            dac::Executor *executor, const std::string &snapshot_dir,
            SpanLog &spans)
{
    BuildProbe probe;
    const Clock::time_point origin = Clock::now();
    uint64_t rid = kProbeIdBase;
    for (const auto &key : keys) {
        const auto &workload =
            dac::workloads::Registry::instance().byAbbrev(key.workload);
        const uint64_t seed =
            dac::combineSeed(options.tuning.seed, key.stableHash());
        auto entry = std::make_shared<dac::service::CachedModel>();

        const auto t0 = Clock::now();
        dac::core::Collector collector(sim, workload);
        auto collected = collector.collectAtSizes(
            bandTrainingSizes(key.sizeBand,
                              options.tuning.collect.datasetCount),
            options.tuning.collect.runsPerDataset, seed,
            options.tuning.collect.sampling, executor);
        const auto t1 = Clock::now();
        auto report = dac::core::buildAndValidate(
            dac::core::ModelKind::HM, collected.vectors, options.tuning.hm,
            true, seed);
        const auto t2 = Clock::now();
        entry->model =
            std::shared_ptr<const dac::ml::Model>(std::move(report.model));
        entry->compiled = std::shared_ptr<const dac::ml::FlatEnsemble>(
            entry->model->compile());
        const auto t3 = Clock::now();
        entry->vectors = std::move(collected.vectors);
        entry->modelErrorPct = report.testErrorPct;
        std::string error;
        if (!dac::service::ModelCache::writeSnapshot(snapshot_dir, key,
                                                     *entry, &error))
            throw std::runtime_error("snapshot write failed: " + error);
        const auto t4 = Clock::now();

        ++rid;
        const uint32_t root =
            spans.add(rid, 0, "probe.build", secondsSince(origin, t0),
                      secondsSince(origin, t4));
        spans.add(rid, root, "probe.collect", secondsSince(origin, t0),
                  secondsSince(origin, t1));
        spans.add(rid, root, "probe.train", secondsSince(origin, t1),
                  secondsSince(origin, t2));
        spans.add(rid, root, "probe.compile", secondsSince(origin, t2),
                  secondsSince(origin, t3));
        spans.add(rid, root, "probe.persist", secondsSince(origin, t3),
                  secondsSince(origin, t4));

        probe.collectMs.push_back(secondsSince(t0, t1) * 1e3);
        probe.trainMs.push_back(secondsSince(t1, t2) * 1e3);
        probe.compileMs.push_back(secondsSince(t2, t3) * 1e3);
        probe.persistMs.push_back(secondsSince(t3, t4) * 1e3);
        probe.simRuns += entry->vectors.size();
        probe.collectSec += secondsSince(t0, t1);
        probe.models.emplace_back(key, std::move(entry));
    }
    return probe;
}

SearchProbe
probeSearch(const BuildProbe &models,
            const dac::service::ServiceOptions &options,
            dac::Executor *executor, size_t searches, SpanLog &spans)
{
    const auto &space = dac::conf::ConfigSpace::spark();
    const auto modelFor = [&](const MixItem &item) {
        const int band = dac::service::sizeBandOf(item.nativeSize);
        for (const auto &[key, model] : models.models) {
            if (key.workload == item.workload && key.sizeBand == band)
                return model;
        }
        throw std::logic_error("search probe lacks a warm model");
    };

    SearchProbe probe;
    const Clock::time_point origin = Clock::now();
    uint64_t rid = kProbeIdBase + (uint64_t{1} << 24);
    dac::Rng draw(0x5ea4c4);
    double evals = 0.0;
    for (size_t s = 0; s < searches; ++s) {
        const MixItem &item = warmMix()[draw.index(warmMix().size())];
        const auto cached = modelFor(item);
        const uint64_t seed = draw.raw();
        const auto &workload =
            dac::workloads::Registry::instance().byAbbrev(item.workload);

        // The service's search protocol (service.cc, process()).
        const auto t0 = Clock::now();
        dac::Rng rng(dac::combineSeed(
            seed, static_cast<uint64_t>(item.nativeSize)));
        std::vector<dac::conf::Configuration> seeds;
        const size_t want = std::min<size_t>(
            options.tuning.ga.populationSize / 2, cached->vectors.size());
        for (size_t i = 0; i < want; ++i) {
            const auto &pv =
                cached->vectors[rng.index(cached->vectors.size())];
            seeds.emplace_back(space, pv.config);
        }
        dac::core::Searcher searcher(*cached->model, space, true);
        searcher.setCompiled(cached->compiled.get());
        dac::ga::GaParams params = options.tuning.ga;
        params.seed = dac::combineSeed(
            seed, static_cast<uint64_t>(item.nativeSize * 1000));
        params.executor = executor;
        const auto found = searcher.search(
            workload.bytesForSize(item.nativeSize), params, seeds);
        const auto t1 = Clock::now();

        spans.add(++rid, 0, "probe.search", secondsSince(origin, t0),
                  secondsSince(origin, t1));
        probe.searchMs.push_back(secondsSince(t0, t1) * 1e3);
        evals += static_cast<double>(found.ga.generations) *
                 static_cast<double>(params.populationSize);
    }
    probe.evalsPerRequest = evals / static_cast<double>(searches);

    // predictBatch on one generation's worth of rows, as the GA's
    // batch objective calls it (executor included).
    const size_t batch = options.tuning.ga.populationSize;
    const size_t width = space.size() + 1;
    dac::Rng genomes(0x9e40);
    std::vector<double> perRowNs;
    for (const auto &[key, cached] : models.models) {
        const auto &workload =
            dac::workloads::Registry::instance().byAbbrev(key.workload);
        std::vector<double> rows(batch * width);
        std::vector<double> unit(space.size());
        for (size_t r = 0; r < batch; ++r) {
            for (double &u : unit)
                u = genomes.uniform();
            space.denormalizeInto(unit.data(), rows.data() + r * width);
            rows[r * width + width - 1] =
                workload.bytesForSize(std::ldexp(1.5, key.sizeBand));
        }
        std::vector<double> out(batch);
        constexpr int kReps = 400;
        const auto t0 = Clock::now();
        for (int rep = 0; rep < kReps; ++rep)
            cached->compiled->predictBatch(rows.data(), width, batch,
                                           out.data(), executor);
        const auto t1 = Clock::now();
        spans.add(++rid, 0, "probe.predict_batch", secondsSince(origin, t0),
                  secondsSince(origin, t1));
        perRowNs.push_back(secondsSince(t0, t1) * 1e9 /
                           static_cast<double>(kReps * batch));
    }
    std::sort(perRowNs.begin(), perRowNs.end());
    probe.predictNsPerRow = perRowNs[perRowNs.size() / 2];
    return probe;
}

} // namespace perfbench
