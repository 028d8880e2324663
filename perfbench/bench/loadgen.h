/**
 * @file
 * Load generation over the wire: an open-loop schedule (latency timed
 * from each request's due time) and a closed-loop capacity phase.
 *
 * Both speak the DAC frame protocol to a TuningServer on loopback. The
 * open loop uses its own pipelined sender/receiver pair per connection
 * so a slow answer never delays a later request's send.
 */

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench/layers.h"
#include "bench/traffic.h"
#include "service/request.h"

namespace perfbench {

/** What happened to one request. */
struct Outcome
{
    PlannedRequest planned;
    /** Seconds after the phase start: due, handed to the socket, and
     *  answer decoded. */
    double dueSec = 0.0;
    double sentSec = 0.0;
    double doneSec = 0.0;
    bool answered = false;
    /** Transport or server error text when not answered. */
    std::string error;
    dac::service::TuneResponse response;

    /** Due-to-answer latency, seconds (the user-visible latency). */
    [[nodiscard]] double latencySec() const { return doneSec - dueSec; }
};

/**
 * Play requests [begin, end) of `schedule` against 127.0.0.1:`port`
 * over `connections` connections, the first one due 50 ms from now;
 * outcome times stay on the schedule's clock. Requests not answered
 * `grace_sec` after the last one was due count as timed out. With
 * `spans`, requests due in even half-second slices record their spans
 * live (the odd slices are the untraced control).
 */
[[nodiscard]] std::vector<Outcome>
runOpenLoop(uint16_t port, const std::vector<PlannedRequest> &schedule,
            size_t begin, size_t end, size_t connections, double grace_sec,
            SpanLog *spans);

/** True when a request due at `due_sec` falls in a traced slice. */
[[nodiscard]] bool tracedSlice(double due_sec);

/** Result of a closed-loop phase. */
struct ClosedLoopResult
{
    double seconds = 0.0;
    /** Every request issued, for the answer check. */
    std::vector<Outcome> outcomes;

    /**
     * Full (undegraded) answers per second in each of floor(seconds)
     * equal windows of the phase (one window when it is shorter than
     * a second).
     */
    [[nodiscard]] std::vector<double> windowRates() const;
};

/**
 * `connections` clients, one request in flight each, for `seconds`;
 * connection c draws stream c of the workload's generator.
 */
[[nodiscard]] ClosedLoopResult
runClosedLoop(uint16_t port, const WorkloadSpec &spec, uint64_t seed,
              const std::vector<dac::service::ModelKey> &cold_keys,
              size_t connections, double seconds);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
