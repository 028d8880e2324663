#include "bench/check.h"

#include <bit>
#include <cmath>
#include <map>

#include "conf/space.h"
#include "dac/evaluation.h"
#include "workloads/registry.h"

namespace perfbench {

std::string
checkAnswer(const Outcome &outcome)
{
    const auto &request = outcome.planned.request;
    const auto &response = outcome.response;
    if (response.workload != request.workload)
        return "workload echo " + response.workload + " != " +
               request.workload;
    if (std::bit_cast<uint64_t>(response.nativeSize) !=
        std::bit_cast<uint64_t>(request.nativeSize))
        return "size echo differs";
    // A degraded answer is the expert fallback, whose values may sit
    // outside the tuning ranges (the paper's defaults do); it counts
    // in the degraded share instead.
    if (response.degraded)
        return {};
    const auto &space = dac::conf::ConfigSpace::spark();
    if (response.best.size() != space.size())
        return "configuration has the wrong arity";
    for (size_t i = 0; i < space.size(); ++i) {
        const auto &param = space.param(i);
        const double v = response.best.get(i);
        if (!std::isfinite(v) || v < param.lo() || v > param.hi())
            return "parameter " + param.name() + " out of range";
    }
    if (!(std::isfinite(response.predictedTimeSec) &&
          response.predictedTimeSec > 0.0))
        return "predicted time is not finite and positive";
    return {};
}

std::vector<const Outcome *>
fixedSample(const std::vector<Outcome> &outcomes, size_t per_question,
            size_t cold_count)
{
    std::vector<const Outcome *> sample;
    std::map<std::pair<std::string, double>, size_t> taken;
    size_t cold = 0;
    for (const Outcome &o : outcomes) {
        const auto &r = o.planned.request;
        if (o.planned.cold ? cold++ < cold_count
                           : taken[{r.workload, r.nativeSize}]++ <
                                 per_question)
            sample.push_back(&o);
    }
    return sample;
}

ReferenceCheck
reaskInProcess(const dac::sparksim::SparkSimulator &sim,
               dac::service::ServiceOptions options,
               const std::vector<const Outcome *> &sample)
{
    options.snapshotDir.clear();
    dac::service::TuningService reference(sim, options);
    ReferenceCheck check;
    for (const Outcome *o : sample) {
        const auto &r = o->planned.request;
        const std::string question = r.workload + "@" +
                                     std::to_string(r.nativeSize) +
                                     " seed " + std::to_string(r.seed);
        check.answers.push_back(reference.submit(r).get());
        const auto &local = check.answers.back();
        if (local.degraded) {
            check.mismatches.push_back("in-process answer degraded for " +
                                       question);
            continue;
        }
        if (!o->answered || o->response.degraded)
            continue;
        ++check.compared;
        const auto &wire = o->response;
        bool same = std::bit_cast<uint64_t>(local.predictedTimeSec) ==
                    std::bit_cast<uint64_t>(wire.predictedTimeSec);
        const auto &a = local.best.values();
        const auto &b = wire.best.values();
        same = same && a.size() == b.size();
        for (size_t k = 0; same && k < a.size(); ++k)
            same = std::bit_cast<uint64_t>(a[k]) ==
                   std::bit_cast<uint64_t>(b[k]);
        if (!same)
            check.mismatches.push_back("wire != in-process for " + question);
    }
    reference.shutdown();
    return check;
}

double
tunedSpeedup(const dac::sparksim::SparkSimulator &sim,
             const std::vector<const Outcome *> &sample,
             const std::vector<dac::service::TuneResponse> &answers)
{
    constexpr int kRuns = 3;
    constexpr uint64_t kSimSeed = 42;
    const dac::conf::Configuration defaults(dac::conf::ConfigSpace::spark());
    std::map<std::pair<std::string, double>, double> defaultTime;
    double logSum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
        if (sample[i]->planned.cold)
            continue;
        const auto &r = sample[i]->planned.request;
        const auto &workload =
            dac::workloads::Registry::instance().byAbbrev(r.workload);
        auto [it, fresh] =
            defaultTime.try_emplace({r.workload, r.nativeSize}, 0.0);
        if (fresh)
            it->second = dac::core::measureTime(sim, workload, r.nativeSize,
                                                defaults, kRuns, kSimSeed);
        const double tuned = dac::core::measureTime(
            sim, workload, r.nativeSize, answers[i].best, kRuns, kSimSeed);
        logSum += std::log(it->second / tuned);
        ++n;
    }
    return std::exp(logSum / static_cast<double>(n));
}

} // namespace perfbench
