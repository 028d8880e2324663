/**
 * @file
 * Per-layer measurement for the traced run: an in-memory span log and
 * probes that time the public layer functions a cache miss and a
 * search go through, called with the service's own option values.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/model_cache.h"
#include "service/service.h"
#include "sparksim/simulator.h"
#include "support/executor.h"

namespace perfbench {

/**
 * Spans kept in memory and written out when the run ends. Spans of
 * one request share its request id; times are seconds from the phase
 * start of whoever recorded them.
 */
class SpanLog
{
  public:
    /** Record a span; returns its id (children name it as parent). */
    uint32_t add(uint64_t request_id, uint32_t parent, std::string name,
                 double start_sec, double end_sec);

    /** Write one JSON object per line. Returns false on I/O failure. */
    [[nodiscard]] bool writeJsonLines(const std::string &path) const;

    [[nodiscard]] size_t size() const;

  private:
    struct Span
    {
        uint64_t requestId;
        uint32_t id;
        uint32_t parent;
        std::string name;
        double startSec;
        double endSec;
    };

    mutable std::mutex mutex;
    std::vector<Span> spans;
};

/** Timings of the miss path's layers, one entry per model built. */
struct BuildProbe
{
    std::vector<double> collectMs;
    std::vector<double> trainMs;
    std::vector<double> compileMs;
    std::vector<double> persistMs;
    /** Simulator runs the collections made, and their wall time. */
    uint64_t simRuns = 0;
    double collectSec = 0.0;
    /** The models built, keyed like the cache. */
    std::vector<std::pair<dac::service::ModelKey,
                          std::shared_ptr<const dac::service::CachedModel>>>
        models;
};

/**
 * Build each key the way the service does on a miss: collect at the
 * band's training sizes, train and validate HM, compile, and write a
 * snapshot into `snapshot_dir`.
 */
[[nodiscard]] BuildProbe
probeBuilds(const dac::sparksim::SparkSimulator &sim,
            const std::vector<dac::service::ModelKey> &keys,
            const dac::service::ServiceOptions &options,
            dac::Executor *executor, const std::string &snapshot_dir,
            SpanLog &spans);

/** Timings of the search path. */
struct SearchProbe
{
    std::vector<double> searchMs;
    /** Generations run x population, mean over the searches. */
    double evalsPerRequest = 0.0;
    /** FlatEnsemble::predictBatch at one generation's batch size. */
    double predictNsPerRow = 0.0;
};

/**
 * Run `searches` GA searches over the warm mix against `models`
 * (which must cover every warm key) the way the service does, then
 * time predictBatch on generation-sized batches.
 */
[[nodiscard]] SearchProbe
probeSearch(const BuildProbe &models,
            const dac::service::ServiceOptions &options,
            dac::Executor *executor, size_t searches, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
