/**
 * @file
 * Traffic of the tune-serving benchmark: the three workloads, the
 * question mix they draw from, and the seeded request schedules.
 *
 * Every request the server sees is generated here from the run seed,
 * so one seed reproduces the same traffic bit for bit; digest()
 * fingerprints a schedule so two runs can show they sent the same.
 */

#ifndef PERFBENCH_TRAFFIC_H
#define PERFBENCH_TRAFFIC_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/model_cache.h"
#include "service/request.h"
#include "support/random.h"

namespace perfbench {

/** The benchmark's traffic mixes. */
enum class WorkloadKind { WarmUnique, WarmRepeat, ColdDrift };

/** Fixed parameters of one workload. */
struct WorkloadSpec
{
    WorkloadKind kind;
    std::string name;
    /** Open-loop arrival rate, requests per second (below saturation). */
    double openLoopRps;
    /** One cold question every this many requests (0 = none). */
    size_t coldStride;
};

/** Spec for a workload name; throws std::invalid_argument if unknown. */
[[nodiscard]] WorkloadSpec workloadByName(const std::string &name);

/** One (program, size) question of the warm mix. */
struct MixItem
{
    std::string workload;
    double nativeSize;
};

/**
 * The warm mix: eight questions over five model bands, Zipf-ranked
 * (rank 1 first). The same mix bench_net_serving uses.
 */
[[nodiscard]] const std::vector<MixItem> &warmMix();

/** The model keys the warm mix needs (what set-up builds). */
[[nodiscard]] std::vector<dac::service::ModelKey>
warmKeys(const std::string &cluster_signature);

/**
 * Cold keys for cold-drift: (program, size band) keys over all six
 * programs that route to cache shards holding no warm key, at least
 * three per shard. The model cache's capacity splits evenly over its
 * shards, so a shard holds `capacity / shards` models (two, as
 * shipped); visiting a shard's three-plus cold keys round-robin
 * therefore evicts each before it comes round again and every cold
 * question misses. Warm keys share no shard with them and stay
 * resident, so warm questions keep hitting. There are more cold keys
 * than the whole cache holds.
 */
[[nodiscard]] std::vector<dac::service::ModelKey>
coldKeys(const std::string &cluster_signature, size_t cache_capacity,
         size_t cache_shards);

/** One generated request plus when it is due (open loop). */
struct PlannedRequest
{
    dac::service::TuneRequest request;
    /** Due time, seconds after the open-loop phase starts. */
    double dueSec = 0.0;
    /** Asks a cold question (cold-drift only). */
    bool cold = false;
};

/**
 * A cold question: `key`'s program at a size drawn inside its band.
 * The band's inner span is cut into `strata` equal parts and the size
 * is drawn from part `stratum`, so asking a key once per stratum
 * covers its whole band.
 */
[[nodiscard]] PlannedRequest coldQuestion(const dac::service::ModelKey &key,
                                          dac::Rng &rng, size_t stratum = 0,
                                          size_t strata = 1);

/**
 * Request generator for one workload and seed. Draws are a pure
 * function of (spec, seed, stream), so the open-loop schedule and each
 * closed-loop connection's sequence are reproducible.
 */
class RequestSource
{
  public:
    /** Stream `stream` of `streams` parallel ones (the open loop is
     *  stream 0 of 1; closed-loop connection c is stream c of N). */
    RequestSource(const WorkloadSpec &spec, uint64_t seed, size_t stream,
                  size_t streams,
                  std::vector<dac::service::ModelKey> cold_keys);

    /** The next request of this stream. */
    [[nodiscard]] PlannedRequest next();

  private:
    WorkloadSpec spec;
    dac::Rng rng;
    std::vector<dac::service::ModelKey> cold;
    /** Seeds warm-repeat draws from, fixed per run seed. */
    std::vector<uint64_t> repeatSeeds;
    std::vector<double> zipfCdf;
    size_t issued = 0;
    /** Round-robin cursor over the cold keys, and its step. */
    size_t coldCursor = 0;
    size_t coldStep = 1;
};

/**
 * Open-loop schedule: Poisson arrivals at spec.openLoopRps over
 * `seconds`, independent schedulers asking as their jobs come due.
 */
[[nodiscard]] std::vector<PlannedRequest>
openLoopSchedule(const WorkloadSpec &spec, uint64_t seed, double seconds,
                 const std::vector<dac::service::ModelKey> &cold_keys);

/** Stable 64-bit fingerprint of a schedule (requests and due times). */
[[nodiscard]] uint64_t digest(const std::vector<PlannedRequest> &schedule);

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_H
