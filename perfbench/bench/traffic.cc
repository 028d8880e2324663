#include "bench/traffic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "workloads/registry.h"

namespace perfbench {

using dac::service::ModelCache;
using dac::service::ModelKey;

WorkloadSpec
workloadByName(const std::string &name)
{
    // Rates sit below saturation. On a 4-core host the closed-loop
    // capacity is ~900-1100 full answers/s on the warm mix and ~600/s
    // on cold-drift, whose builds take pool workers from warm traffic.
    if (name == "warm-unique")
        return {WorkloadKind::WarmUnique, name, 450.0, 0};
    if (name == "warm-repeat")
        return {WorkloadKind::WarmRepeat, name, 450.0, 0};
    if (name == "cold-drift")
        return {WorkloadKind::ColdDrift, name, 300.0, 25};
    throw std::invalid_argument("unknown workload '" + name +
                                "' (warm-unique, warm-repeat, cold-drift)");
}

const std::vector<MixItem> &
warmMix()
{
    static const std::vector<MixItem> mix = {
        {"TS", 40.0},  {"WC", 80.0},  {"KM", 200.0}, {"TS", 44.0},
        {"PR", 120.0}, {"WC", 95.0},  {"KM", 230.0}, {"PR", 140.0},
    };
    return mix;
}

std::vector<ModelKey>
warmKeys(const std::string &cluster_signature)
{
    std::set<ModelKey> keys;
    for (const MixItem &item : warmMix())
        keys.insert({item.workload, cluster_signature,
                     dac::service::sizeBandOf(item.nativeSize)});
    return {keys.begin(), keys.end()};
}

std::vector<ModelKey>
coldKeys(const std::string &cluster_signature, size_t cache_capacity,
         size_t cache_shards)
{
    const size_t perShard =
        (std::max(cache_capacity, cache_shards) + cache_shards - 1) /
        cache_shards;
    const size_t need = perShard + 1;

    std::map<size_t, size_t> warmPerShard;
    for (const ModelKey &key : warmKeys(cluster_signature))
        ++warmPerShard[ModelCache::shardIndexFor(key, cache_shards)];
    for (const auto &[shard, count] : warmPerShard) {
        if (count > perShard)
            throw std::logic_error("warm keys overflow a cache shard");
    }

    // Bands around each program's paper sizes (Table 1), nearest first.
    std::map<size_t, std::vector<ModelKey>> byShard;
    for (const int offset : {0, 1, -1, 2, -2, 3, -3}) {
        for (const auto &w : dac::workloads::Registry::instance().all()) {
            const auto sizes = w->paperSizes();
            const int base = dac::service::sizeBandOf(
                sizes[sizes.size() / 2]);
            ModelKey key{w->abbrev(), cluster_signature, base + offset};
            const size_t shard =
                ModelCache::shardIndexFor(key, cache_shards);
            if (warmPerShard.count(shard) == 0)
                byShard[shard].push_back(std::move(key));
        }
    }

    // Interleave shards so consecutive cold questions land on
    // different shards and programs.
    std::vector<ModelKey> keys;
    std::set<std::string> programs;
    for (size_t round = 0;; ++round) {
        bool any = false;
        for (const auto &[shard, list] : byShard) {
            if (list.size() < need || round >= list.size())
                continue;
            keys.push_back(list[round]);
            programs.insert(list[round].workload);
            any = true;
        }
        if (!any)
            break;
    }
    if (keys.size() <= cache_capacity ||
        programs.size() != dac::workloads::Registry::instance().all().size())
        throw std::logic_error("cold key set cannot defeat the cache");
    return keys;
}

RequestSource::RequestSource(const WorkloadSpec &spec, uint64_t seed,
                             size_t stream, size_t streams,
                             std::vector<ModelKey> cold_keys)
    : spec(spec), rng(dac::combineSeed(seed, streams * 1000 + stream)),
      cold(std::move(cold_keys)), coldStep(streams)
{
    // The repeat seeds and the cold cycle's start are per run seed,
    // shared by every stream of the run.
    dac::Rng runRng(dac::combineSeed(seed, 0x5eed));
    for (int i = 0; i < 8; ++i)
        repeatSeeds.push_back(runRng.raw());
    if (!cold.empty()) {
        // Stream s of N starts s keys on and steps by N, so parallel
        // streams together walk the one round-robin cycle.
        coldCursor = runRng.index(cold.size()) + stream;
    }

    double total = 0.0;
    for (size_t rank = 0; rank < warmMix().size(); ++rank) {
        total += 1.0 / static_cast<double>(rank + 1);
        zipfCdf.push_back(total);
    }
    for (double &c : zipfCdf)
        c /= total;
}

PlannedRequest
coldQuestion(const ModelKey &key, dac::Rng &rng, size_t stratum,
             size_t strata)
{
    PlannedRequest out;
    out.cold = true;
    out.request.workload = key.workload;
    // Strictly inside the band so sizeBandOf() maps back to it.
    const double lo = 0.15, width = 0.7 / static_cast<double>(strata);
    const double from = lo + width * static_cast<double>(stratum);
    out.request.nativeSize = std::ldexp(1.0, key.sizeBand) *
                             std::exp2(rng.uniformReal(from, from + width));
    out.request.seed = rng.raw();
    return out;
}

PlannedRequest
RequestSource::next()
{
    ++issued;
    if (spec.coldStride != 0 && issued % spec.coldStride == 0) {
        const ModelKey &key = cold[coldCursor % cold.size()];
        coldCursor += coldStep;
        return coldQuestion(key, rng);
    }
    PlannedRequest out;
    const double u = rng.uniform();
    const auto it = std::lower_bound(zipfCdf.begin(), zipfCdf.end(), u);
    const size_t rank = it == zipfCdf.end()
                            ? zipfCdf.size() - 1
                            : static_cast<size_t>(it - zipfCdf.begin());
    const MixItem &item = warmMix()[rank];
    out.request.workload = item.workload;
    out.request.nativeSize = item.nativeSize;
    out.request.seed = spec.kind == WorkloadKind::WarmRepeat
                           ? repeatSeeds[rng.index(repeatSeeds.size())]
                           : rng.raw();
    return out;
}

std::vector<PlannedRequest>
openLoopSchedule(const WorkloadSpec &spec, uint64_t seed, double seconds,
                 const std::vector<ModelKey> &cold_keys)
{
    RequestSource source(spec, seed, 0, 1, cold_keys);
    dac::Rng arrivals(dac::combineSeed(seed, 0xa77));
    std::vector<PlannedRequest> schedule;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - arrivals.uniform()) / spec.openLoopRps;
        if (t >= seconds)
            break;
        PlannedRequest planned = source.next();
        planned.dueSec = t;
        schedule.push_back(std::move(planned));
    }
    return schedule;
}

uint64_t
digest(const std::vector<PlannedRequest> &schedule)
{
    uint64_t h = 0x243f6a8885a308d3ULL;
    const auto mix = [&h](uint64_t v) {
        h = dac::splitmix64(h ^ v);
    };
    for (const PlannedRequest &planned : schedule) {
        for (const char c : planned.request.workload)
            mix(static_cast<unsigned char>(c));
        mix(std::bit_cast<uint64_t>(planned.request.nativeSize));
        mix(planned.request.seed);
        mix(std::bit_cast<uint64_t>(planned.dueSec));
    }
    return h;
}

} // namespace perfbench
