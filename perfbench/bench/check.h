/**
 * @file
 * Answer checks: every wire answer is checked on its own, a fixed
 * sample is re-asked in process and must match bit for bit, and the
 * same sample gives the tuned-configuration speed-up (answer quality).
 */

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <string>
#include <vector>

#include "bench/loadgen.h"
#include "service/service.h"
#include "sparksim/simulator.h"

namespace perfbench {

/**
 * Check one answered request: it echoes its workload and size and,
 * unless it is a degraded expert fallback, its configuration lies
 * inside ConfigSpace::spark() ranges and its predicted time is finite
 * and positive. Returns an empty string when it passes, else why not.
 */
[[nodiscard]] std::string checkAnswer(const Outcome &outcome);

/**
 * A fixed sample of open-loop requests, chosen by schedule position
 * alone: the first `per_question` requests asking each warm-mix
 * question, then the first `cold_count` cold ones. The same seed gives
 * the same sample however the run's timing went.
 */
[[nodiscard]] std::vector<const Outcome *>
fixedSample(const std::vector<Outcome> &outcomes, size_t per_question,
            size_t cold_count);

/** In-process answers to a sample, and how they compare with the wire. */
struct ReferenceCheck
{
    /** The in-process answer to each sampled request, in sample order. */
    std::vector<dac::service::TuneResponse> answers;
    /** Wire answers compared (answered and undegraded ones). */
    size_t compared = 0;
    /** One message per wire answer whose configuration or predicted
     *  time differs in any IEEE-754 bit, or per degraded reference. */
    std::vector<std::string> mismatches;
};

/**
 * Ask each sampled question, one at a time, of a fresh in-process
 * TuningService with `options` (snapshots off) and compare with the
 * wire answer — the repository's wire == in-process guarantee.
 */
[[nodiscard]] ReferenceCheck
reaskInProcess(const dac::sparksim::SparkSimulator &sim,
               dac::service::ServiceOptions options,
               const std::vector<const Outcome *> &sample);

/**
 * Geometric mean over `answers` to `sample` of
 * measureTime(default configuration) / measureTime(answer) at the
 * requested size, with a fixed simulator seed (the paper's Fig. 12
 * speed-up). Warm-mix questions only, so every workload averages the
 * same question mix.
 */
[[nodiscard]] double
tunedSpeedup(const dac::sparksim::SparkSimulator &sim,
             const std::vector<const Outcome *> &sample,
             const std::vector<dac::service::TuneResponse> &answers);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
