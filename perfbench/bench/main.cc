/**
 * @file
 * The tune-serving benchmark program.
 *
 * Serves DAC from an in-process net::TuningServer on loopback with the
 * ServiceOptions examples/tuning_server ships, loads it from this
 * process, checks every answer, and prints the metrics as the last
 * line of stdout:
 *
 *   tune_serving_bench --workload NAME --seed N --seconds S --trace 0|1
 *                      [--workdir DIR]
 *
 * A run: set up three times (server construction plus the warm model
 * set; the median is reported); one unmeasured second of closed-loop
 * warm-up; three rounds of an open-loop Poisson slice (70% of S in
 * all) followed by a closed-loop slice (30% of S), and on the warm
 * workloads a pass of new questions over the cold keys after each
 * slice, asked one at a time; the answer checks. With --trace 1 it
 * also measures obs cost with interleaved on/off pairs, probes the
 * layer functions, writes its spans under DIR, and prints the
 * per-layer metrics instead of the end-to-end ones. Exit status is 0 only when every request was
 * answered and every check passed. perfbench/README.md describes the
 * workloads and every metric.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/check.h"
#include "bench/layers.h"
#include "bench/loadgen.h"
#include "bench/stats.h"
#include "bench/traffic.h"
#include "cluster/cluster.h"
#include "ml/simd.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "service/service.h"
#include "service/thread_pool.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using dac::service::Phase;

/** Client connections: one per core, at most four. */
constexpr size_t kMaxConnections = 4;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Unmeasured closed-loop seconds before the measured phases. */
constexpr double kWarmupSec = 1.0;
/** Open-loop/closed-loop rounds the measured time is split into, so a
 *  transient stall of the host lands in one slice of each phase. */
constexpr int kRounds = 3;
/** Open-loop answers re-asked in process: this many per warm-mix
 *  question, plus this many cold ones. */
constexpr size_t kSamplePerQuestion = 8;
constexpr size_t kSampleCold = 4;
/** Seconds an open-loop request may stay unanswered after the last
 *  one was due before it counts as timed out. */
constexpr double kGraceSec = 20.0;
/** Interleaved obs on/off pairs, and each side's closed-loop seconds. */
constexpr int kObsPairs = 4;
constexpr double kObsSideSec = 0.75;
/** Passes of the warm workloads' miss probe over the cold keys, one
 *  after each open-loop and each closed-loop slice; each key is asked
 *  once per stratum of its size band. */
constexpr size_t kMissProbePasses = 2 * kRounds;
/** GA searches the traced run's search probe makes. */
constexpr size_t kProbeSearches = 40;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir = ".bench_build/run";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
            haveSeconds = true;
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (argc % 2 == 0 || !haveWorkload || !haveSeed || !haveSeconds ||
        args.seconds <= 0.0)
        throw std::invalid_argument(
            "usage: tune_serving_bench --workload NAME --seed N "
            "--seconds S --trace 0|1 [--workdir DIR]");
    return args;
}

/** The ServiceOptions examples/tuning_server ships. */
dac::service::ServiceOptions
shippedOptions()
{
    dac::service::ServiceOptions options;
    options.threads = 4;
    options.tuning.collect.datasetCount = 5;
    options.tuning.collect.runsPerDataset = 16;
    options.tuning.hm.firstOrder.maxTrees = 80;
    options.tuning.ga.maxGenerations = 30;
    options.parallelWithinRequest = true;
    return options;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A server over `service` with the tuning_server example's options;
 *  `metrics` false leaves its RED/phase metrics off. */
std::unique_ptr<dac::net::TuningServer>
startServer(dac::service::TuningService &service, bool metrics)
{
    dac::net::ServerOptions sopt;
    sopt.eventLoops = 2;
    sopt.metrics = metrics ? &service.metrics() : nullptr;
    auto server = std::make_unique<dac::net::TuningServer>(service, sopt);
    server->start();
    return server;
}

/** A served stack: service plus wire server. */
struct Stack
{
    std::unique_ptr<dac::service::TuningService> service;
    std::unique_ptr<dac::net::TuningServer> server;

    void
    stop()
    {
        if (server)
            server->stop();
        if (service)
            service->shutdown();
        server.reset();
        service.reset();
    }
};

/** Ask `questions` in turn on one connection; doneSec is each one's
 *  own round-trip time. */
void
askOneAtATime(uint16_t port, const std::vector<PlannedRequest> &questions,
              std::vector<Outcome> &out)
{
    dac::net::Client client("127.0.0.1", port);
    for (const PlannedRequest &question : questions) {
        Outcome o;
        o.planned = question;
        const auto t0 = Clock::now();
        try {
            o.response = client.request(question.request);
            o.answered = true;
        } catch (const dac::net::RpcError &e) {
            o.error = e.what();
        }
        o.doneSec = secondsSince(t0);
        out.push_back(std::move(o));
    }
}

/** The first warm-mix question of each warm key (set-up asks these). */
std::vector<PlannedRequest>
warmSetQuestions(const std::string &cluster)
{
    std::vector<PlannedRequest> questions;
    for (const auto &key : warmKeys(cluster)) {
        for (const MixItem &item : warmMix()) {
            if (item.workload == key.workload &&
                dac::service::sizeBandOf(item.nativeSize) == key.sizeBand) {
                PlannedRequest q;
                q.request.workload = item.workload;
                q.request.nativeSize = item.nativeSize;
                q.request.seed = 1;
                questions.push_back(std::move(q));
                break;
            }
        }
    }
    return questions;
}

/** Everything one run measured, before it becomes metrics. */
struct Measured
{
    std::vector<double> setupSec;
    std::vector<Outcome> setup;
    std::vector<Outcome> warmUp;
    std::vector<PlannedRequest> schedule;
    std::vector<Outcome> open;
    std::vector<Outcome> closed;
    /** Full answers per second of every closed-loop window. */
    std::vector<double> closedRates;
    /** Model-cache and wire counters over the open-loop slices. */
    dac::service::ModelCache::Stats cache;
    uint64_t wireRequests = 0;
    uint64_t wireBatches = 0;
    /** Warm workloads: new questions on the cold keys, one at a time. */
    std::vector<Outcome> missProbe;
    /** obs shipped / obs off closed-loop rate, one per pair. */
    std::vector<double> obsRatios;
};

/**
 * The warm workloads' miss probe: kMissProbePasses passes over the
 * cold keys (shards no warm key uses), round-robin from a seeded start,
 * so each question misses. A build's cost grows with the size asked,
 * so every key is asked once in each stratum of its band: the sample's
 * make-up is then the same for every seed.
 */
std::vector<PlannedRequest>
missProbeQuestions(uint64_t seed,
                   const std::vector<dac::service::ModelKey> &cold)
{
    dac::Rng rng(dac::combineSeed(seed, 0xc01d));
    const size_t first = rng.index(cold.size());
    std::vector<PlannedRequest> questions;
    for (size_t pass = 0; pass < kMissProbePasses; ++pass) {
        for (size_t i = 0; i < cold.size(); ++i)
            questions.push_back(coldQuestion(
                cold[(first + i) % cold.size()], rng,
                (pass + i) % kMissProbePasses, kMissProbePasses));
    }
    return questions;
}

/**
 * The open-loop slices interleaved with the closed-loop slices. One
 * pass of `probe` (if any) is asked one question at a time after each
 * slice, so a stall of the host lands in one pass, not in the whole
 * probe.
 */
void
measureRounds(Stack &stack, const WorkloadSpec &spec, uint64_t seed,
              const std::vector<dac::service::ModelKey> &cold,
              size_t connections, double open_sec, double closed_sec,
              const std::vector<PlannedRequest> &probe, SpanLog *spans,
              Measured &m)
{
    auto &service = *stack.service;
    auto &server = *stack.server;
    const size_t passLen = probe.size() / kMissProbePasses;
    size_t probed = 0;
    const auto probePass = [&] {
        if (passLen == 0)
            return;
        const auto begin = probe.begin() + static_cast<ptrdiff_t>(probed);
        askOneAtATime(server.port(),
                      {begin, begin + static_cast<ptrdiff_t>(passLen)},
                      m.missProbe);
        probed += passLen;
    };
    size_t next = 0;
    for (int round = 0; round < kRounds; ++round) {
        const double until = open_sec * (round + 1) / kRounds;
        size_t end = next;
        while (end < m.schedule.size() && m.schedule[end].dueSec < until)
            ++end;
        const auto cacheBefore = service.cacheStats();
        const auto wireBefore = server.stats();
        auto slice = runOpenLoop(server.port(), m.schedule, next, end,
                                 connections, kGraceSec, spans);
        const auto cacheAfter = service.cacheStats();
        const auto wireAfter = server.stats();
        m.cache.hits += cacheAfter.hits - cacheBefore.hits;
        m.cache.misses += cacheAfter.misses - cacheBefore.misses;
        m.cache.coalesced += cacheAfter.coalesced - cacheBefore.coalesced;
        m.cache.evictions += cacheAfter.evictions - cacheBefore.evictions;
        m.wireRequests +=
            wireAfter.requestsSubmitted - wireBefore.requestsSubmitted;
        m.wireBatches +=
            wireAfter.batchesSubmitted - wireBefore.batchesSubmitted;
        std::move(slice.begin(), slice.end(), std::back_inserter(m.open));
        next = end;
        probePass();

        auto closed = runClosedLoop(
            server.port(), spec,
            dac::combineSeed(seed, static_cast<uint64_t>(round)), cold,
            connections, closed_sec / kRounds);
        const auto rates = closed.windowRates();
        m.closedRates.insert(m.closedRates.end(), rates.begin(),
                             rates.end());
        std::move(closed.outcomes.begin(), closed.outcomes.end(),
                  std::back_inserter(m.closed));
        probePass();
    }
}

/**
 * obs cost as interleaved closed-loop pairs on two servers over the
 * one service: obs as shipped (flight recorder plus the server's RED
 * and phase metrics) against all of it off, alternating which side
 * runs first. The tracer is off on both sides, as shipped.
 */
std::vector<double>
obsCostRatios(Stack &stack, const WorkloadSpec &spec, uint64_t seed,
              const std::vector<dac::service::ModelKey> &cold,
              size_t connections)
{
    auto bare = startServer(*stack.service, false);
    std::vector<double> ratios;
    for (int pair = 0; pair < kObsPairs; ++pair) {
        double rps[2] = {0.0, 0.0}; // off, on
        for (int side = 0; side < 2; ++side) {
            const bool on = (side == 0) == (pair % 2 == 0);
            dac::obs::FlightRecorder::instance().setEnabled(on);
            rps[on ? 1 : 0] = median(
                runClosedLoop(on ? stack.server->port() : bare->port(),
                              spec, dac::combineSeed(seed, 1000 + pair),
                              cold, connections, kObsSideSec)
                    .windowRates());
        }
        ratios.push_back(rps[1] / rps[0]);
    }
    dac::obs::FlightRecorder::instance().setEnabled(true);
    bare->stop();
    return ratios;
}

/** Requests of one load phase, by how they ended. */
struct PhaseCount
{
    size_t sent = 0;
    size_t succeeded = 0;
    size_t failed = 0;
    /** Succeeded with a degraded (fallback or truncated) answer. */
    size_t degraded = 0;

    PhaseCount
    operator+(const PhaseCount &other) const
    {
        return {sent + other.sent, succeeded + other.succeeded,
                failed + other.failed, degraded + other.degraded};
    }

    [[nodiscard]] std::string
    json() const
    {
        return "{\"sent\": " + std::to_string(sent) +
               ", \"succeeded\": " + std::to_string(succeeded) +
               ", \"failed\": " + std::to_string(failed) +
               ", \"degraded\": " + std::to_string(degraded) + "}";
    }
};

/** Check every outcome; failures (unanswered or failing the answer
 *  check) append their reason to `failures`. */
PhaseCount
tally(const std::vector<Outcome> &outcomes,
      std::vector<std::string> &failures)
{
    PhaseCount count;
    for (const Outcome &o : outcomes) {
        ++count.sent;
        std::string why = o.answered ? checkAnswer(o) : o.error;
        if (!why.empty()) {
            ++count.failed;
            failures.push_back(std::move(why));
            continue;
        }
        ++count.succeeded;
        count.degraded += o.response.degraded ? 1 : 0;
    }
    return count;
}

/** Seconds of `phase` from every answer whose v2 phase list has it,
 *  scaled by `scale`. */
std::vector<double>
phaseValues(const std::vector<Outcome> &outcomes, Phase phase,
            double scale)
{
    std::vector<double> values;
    for (const Outcome &o : outcomes) {
        if (!o.answered)
            continue;
        for (const auto &p : o.response.phases) {
            if (p.phase == phase)
                values.push_back(p.sec * scale);
        }
    }
    return values;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
meanOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return v.empty() ? std::nan("") : sum / static_cast<double>(v.size());
}

/** Metrics of the final JSON line, in insertion order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        if (std::isfinite(value))
            std::snprintf(buf, sizeof buf, "%.17g", value);
        else
            std::snprintf(buf, sizeof buf, "null");
        body << (body.tellp() > 0 ? ", " : "") << "\"" << name
             << "\": {\"value\": " << buf << ", \"unit\": \"" << unit
             << "\"}";
    }

    [[nodiscard]] std::string json() const { return "{" + body.str() + "}"; }

  private:
    std::ostringstream body;
};

/** Latency samples of one run, in milliseconds. */
struct Latencies
{
    /** Due-to-answer, every open-loop request (a failure is +inf: it
     *  misses any limit). */
    std::vector<double> all;
    /** Answers built on a cache miss. */
    std::vector<double> miss;
    /** How late the generator sent each open-loop request. */
    std::vector<double> lag;
};

Latencies
latencies(const Measured &m)
{
    Latencies l;
    for (const Outcome &o : m.open) {
        l.lag.push_back((o.sentSec - o.dueSec) * 1e3);
        if (!o.answered) {
            l.all.push_back(std::numeric_limits<double>::infinity());
            continue;
        }
        l.all.push_back(o.latencySec() * 1e3);
        if (!o.response.modelCacheHit && !o.response.degraded)
            l.miss.push_back(o.latencySec() * 1e3);
    }
    for (const Outcome &o : m.missProbe) {
        if (o.answered && !o.response.modelCacheHit)
            l.miss.push_back(o.doneSec * 1e3);
    }
    return l;
}

/** The traced run's per-layer metrics (layer probes run here). */
void
addPerLayer(MetricSet &metrics, const Measured &m, const Latencies &l,
            const WorkloadSpec &spec,
            const dac::sparksim::SparkSimulator &sim,
            const dac::service::ServiceOptions &options,
            const std::vector<dac::service::ModelKey> &cold,
            const std::string &probe_dir, SpanLog &spans)
{
    // Layer probes with the service's option values: the miss path
    // over every third cold key (what misses build on every workload),
    // the search path over the warm models.
    dac::service::ThreadPool pool(options.threads);
    std::vector<dac::service::ModelKey> coldProbeKeys;
    for (size_t i = 0; i < cold.size(); i += 3)
        coldProbeKeys.push_back(cold[i]);
    const BuildProbe build =
        probeBuilds(sim, coldProbeKeys, options, &pool, probe_dir, spans);
    const BuildProbe warmModels =
        probeBuilds(sim, warmKeys(sim.clusterSpec().signature()), options,
                    &pool, probe_dir, spans);
    const SearchProbe search =
        probeSearch(warmModels, options, &pool, kProbeSearches, spans);
    pool.shutdown();

    std::vector<double> unattributedUs;
    std::vector<double> tracedMs;
    std::vector<double> untracedMs;
    double answered = 0.0;
    double coalesced = 0.0;
    for (const Outcome &o : m.open) {
        if (!o.answered)
            continue;
        answered += 1.0;
        coalesced += o.response.coalesced ? 1.0 : 0.0;
        double serverSec = 0.0;
        for (const auto &p : o.response.phases)
            serverSec += p.sec;
        unattributedUs.push_back((o.doneSec - o.sentSec - serverSec) * 1e6);
        (tracedSlice(o.dueSec) ? tracedMs : untracedMs)
            .push_back(o.latencySec() * 1e3);
    }
    const auto queueMs = phaseValues(m.open, Phase::Queue, 1e3);
    const double hits =
        static_cast<double>(m.cache.hits + m.cache.coalesced);
    const double probeSearchMs = median(search.searchMs);

    metrics.add("net.decode_us_p50",
                median(phaseValues(m.open, Phase::Decode, 1e6)), "us");
    metrics.add("net.serialize_us_p50",
                median(phaseValues(m.open, Phase::Serialize, 1e6)), "us");
    metrics.add("net.unattributed_us_p50", median(unattributedUs), "us");
    metrics.add("net.requests_per_batch",
                static_cast<double>(m.wireRequests) /
                    static_cast<double>(m.wireBatches),
                "count");
    metrics.add("service.queue_ms_p50", quantile(queueMs, 0.50), "ms");
    metrics.add("service.queue_ms_p99", quantile(queueMs, 0.99), "ms");
    metrics.add("service.coalesced_frac", coalesced / answered, "ratio");
    metrics.add("cache.lookup_us_p50",
                median(phaseValues(m.open, Phase::CacheLookup, 1e6)), "us");
    metrics.add("cache.hit_frac",
                hits / (hits + static_cast<double>(m.cache.misses)),
                "ratio");
    metrics.add("cache.evictions", static_cast<double>(m.cache.evictions),
                "count");
    metrics.add("build.ms_p50",
                median(phaseValues(spec.kind == WorkloadKind::ColdDrift
                                       ? m.open
                                       : m.missProbe,
                                   Phase::ModelBuild, 1e3)),
                "ms");
    metrics.add("collect.ms_per_model", meanOf(build.collectMs), "ms");
    metrics.add("sparksim.runs_per_s",
                static_cast<double>(build.simRuns) / build.collectSec,
                "1/s");
    metrics.add("train.ms_per_model", meanOf(build.trainMs), "ms");
    metrics.add("compile.ms_per_model", meanOf(build.compileMs), "ms");
    metrics.add("persist.save_ms_per_model", meanOf(build.persistMs), "ms");
    metrics.add("search.ms_p50",
                median(phaseValues(m.open, Phase::Search, 1e3)), "ms");
    metrics.add("search.probe_ms_p50", probeSearchMs, "ms");
    metrics.add("search.evals_per_request", search.evalsPerRequest,
                "count");
    metrics.add("predict.ns_per_row", search.predictNsPerRow, "ns");
    metrics.add("ga.bookkeeping_frac",
                1.0 - search.evalsPerRequest * search.predictNsPerRow *
                          1e-6 / probeSearchMs,
                "ratio");
    metrics.add("obs.cost_frac", 1.0 - median(m.obsRatios), "ratio");
    metrics.add("trace.overhead_frac",
                median(tracedMs) / median(untracedMs) - 1.0, "ratio");
    metrics.add("trace.latency_p50_ms", quantile(l.all, 0.50), "ms");
    metrics.add("trace.miss_latency_p50_ms", median(l.miss), "ms");
    metrics.add("loadgen.lag_p99_ms", quantile(l.lag, 0.99), "ms");
}

int
run(const Args &args)
{
    const WorkloadSpec spec = workloadByName(args.workload);
    const size_t connections = std::min<size_t>(
        kMaxConnections,
        std::max(1u, std::thread::hardware_concurrency()));
    const double openSec = 0.7 * args.seconds;
    const double closedSec = 0.3 * args.seconds;

    const std::string runDir =
        args.workdir + "/" + spec.name + "-" + std::to_string(getpid());
    std::filesystem::remove_all(runDir);
    std::filesystem::create_directories(runDir);

    std::printf("host: {\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"walk_kernel\": \"%s\"}\n",
                std::thread::hardware_concurrency(), DAC_BENCH_COMPILER,
                DAC_BENCH_BUILD_TYPE,
                dac::ml::simd::kernelName(dac::ml::simd::active()));

    dac::sparksim::SparkSimulator sim(
        dac::cluster::ClusterSpec::paperTestbed());
    dac::service::ServiceOptions options = shippedOptions();
    if (spec.kind == WorkloadKind::ColdDrift)
        options.snapshotDir = runDir + "/snapshots";
    const std::string cluster = sim.clusterSpec().signature();
    const auto cold = coldKeys(cluster, options.modelCacheCapacity,
                               options.modelCacheShards);

    Measured m;
    Stack stack;
    for (int i = 0; i < kSetups; ++i) {
        stack.stop();
        if (!options.snapshotDir.empty()) {
            // Never restore an earlier set-up's snapshots.
            std::filesystem::remove_all(options.snapshotDir);
        }
        const auto t0 = Clock::now();
        stack.service =
            std::make_unique<dac::service::TuningService>(sim, options);
        stack.server = startServer(*stack.service, true);
        askOneAtATime(stack.server->port(), warmSetQuestions(cluster),
                      m.setup);
        m.setupSec.push_back(secondsSince(t0));
    }
    const uint16_t port = stack.server->port();

    // Unmeasured, but its answers are checked: brings the pool, the
    // caches and the CPUs to the state the measured phases see.
    m.warmUp = runClosedLoop(port, spec, dac::combineSeed(args.seed, 99),
                             cold, connections, kWarmupSec)
                   .outcomes;

    SpanLog spans;
    m.schedule = openLoopSchedule(spec, args.seed, openSec, cold);
    // Warm workloads never miss under load; their miss latency comes
    // from the probe between the slices.
    const auto probe = spec.kind == WorkloadKind::ColdDrift
                           ? std::vector<PlannedRequest>{}
                           : missProbeQuestions(args.seed, cold);
    measureRounds(stack, spec, args.seed, cold, connections, openSec,
                  closedSec, probe, args.trace ? &spans : nullptr, m);
    if (args.trace)
        m.obsRatios = obsCostRatios(stack, spec, args.seed, cold,
                                    connections);
    stack.stop();

    // Answer checks: every answer on its own, then the fixed sample
    // against in-process answers.
    std::vector<std::string> failures;
    const PhaseCount setupCount = tally(m.setup, failures);
    const PhaseCount warmUpCount = tally(m.warmUp, failures);
    const PhaseCount openCount = tally(m.open, failures);
    const PhaseCount closedCount = tally(m.closed, failures);
    const PhaseCount missProbeCount = tally(m.missProbe, failures);
    const auto sample = fixedSample(m.open, kSamplePerQuestion, kSampleCold);
    const ReferenceCheck reference = reaskInProcess(sim, options, sample);
    failures.insert(failures.end(), reference.mismatches.begin(),
                    reference.mismatches.end());
    const double speedup = tunedSpeedup(sim, sample, reference.answers);

    const PhaseCount total = setupCount + warmUpCount + openCount +
                             closedCount + missProbeCount;
    const uint64_t failed = total.failed + reference.mismatches.size();
    const double errorFrac =
        static_cast<double>(failed) / static_cast<double>(total.sent);
    const double degradedFrac = static_cast<double>(total.degraded) /
                                static_cast<double>(total.sent);
    const bool correct = failed == 0 && reference.compared > 0;
    const Latencies l = latencies(m);

    std::printf("run: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"open_loop_rps\": %.1f, \"open_loop_seconds\": %.2f, "
                "\"closed_loop_seconds\": %.2f, \"connections\": %zu, "
                "\"schedule_digest\": \"%016llx\", \"cold_keys\": %zu, "
                "\"setup\": %s, \"warm_up\": %s, \"open_loop\": %s, "
                "\"closed_loop\": %s, \"miss_probe\": %s, "
                "\"latency_samples\": %zu, \"miss_samples\": %zu, "
                "\"latency_p95_ms\": %.4f, \"latency_p99_ms\": %.4f, "
                "\"loadgen_lag_p99_ms\": %.4f, "
                "\"error_frac\": %.6f, \"degraded_frac\": %.6f, "
                "\"reasked\": %zu, \"reask_compared\": %zu, "
                "\"reask_mismatches\": %zu}\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                spec.openLoopRps, openSec, closedSec, connections,
                static_cast<unsigned long long>(digest(m.schedule)),
                cold.size(), setupCount.json().c_str(),
                warmUpCount.json().c_str(), openCount.json().c_str(),
                closedCount.json().c_str(), missProbeCount.json().c_str(),
                l.all.size(), l.miss.size(), quantile(l.all, 0.95),
                quantile(l.all, 0.99),
                quantile(l.lag, 0.99), errorFrac, degradedFrac,
                sample.size(), reference.compared,
                reference.mismatches.size());
    std::printf("answer check: %s (%llu of %zu failed)\n",
                correct ? "pass" : "FAIL",
                static_cast<unsigned long long>(failed), total.sent);
    for (size_t i = 0; i < failures.size() && i < 8; ++i)
        std::printf("  check failure: %s\n", failures[i].c_str());

    MetricSet metrics;
    if (!args.trace) {
        metrics.add("latency_p50_ms", quantile(l.all, 0.50), "ms");
        metrics.add("miss_latency_p50_ms", median(l.miss), "ms");
        metrics.add("peak_rps", median(m.closedRates), "1/s");
        metrics.add("undegraded_frac", 1.0 - degradedFrac, "ratio");
        metrics.add("tuned_speedup", speedup, "x");
        metrics.add("setup_s", median(m.setupSec), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        addPerLayer(metrics, m, l, spec, sim, options, cold,
                    runDir + "/probe-snapshots", spans);
        const std::string tracePath =
            args.workdir + "/trace-" + spec.name + "-seed" +
            std::to_string(args.seed) + ".jsonl";
        if (!spans.writeJsonLines(tracePath))
            throw std::runtime_error("cannot write " + tracePath);
        std::printf("spans: %zu -> %s\n", spans.size(), tracePath.c_str());
    }
    std::filesystem::remove_all(runDir);

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", total.sent,
                static_cast<unsigned long long>(failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tune_serving_bench: %s\n", e.what());
        return 2;
    }
}
