#include "bench/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include <sys/socket.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start, Clock::time_point t)
{
    return std::chrono::duration<double>(t - start).count();
}

/** Live span recording for one answered open-loop request. */
void
recordRequestSpans(SpanLog &log, uint64_t rid, const Outcome &o)
{
    const uint32_t root = log.add(rid, 0, "request", o.dueSec, o.doneSec);
    log.add(rid, root, "loadgen.lag", o.dueSec, o.sentSec);
    const uint32_t trip =
        log.add(rid, root, "net.roundtrip", o.sentSec, o.doneSec);
    // The server reports phase durations, not start times: lay them
    // end to end from the send, in pipeline order.
    double at = o.sentSec;
    for (const auto &phase : o.response.phases) {
        log.add(rid, trip,
                std::string("server.") +
                    dac::service::phaseName(phase.phase),
                at, at + phase.sec);
        at += phase.sec;
    }
    log.add(rid, trip, "net.unattributed", at, o.doneSec);
}

} // namespace

bool
tracedSlice(double due_sec)
{
    return static_cast<int64_t>(std::floor(due_sec / 0.5)) % 2 == 0;
}

std::vector<Outcome>
runOpenLoop(uint16_t port, const std::vector<PlannedRequest> &schedule,
            size_t begin, size_t end, size_t connections, double grace_sec,
            SpanLog *spans)
{
    const size_t n = end - begin;
    std::vector<Outcome> outcomes(n);
    for (size_t k = 0; k < n; ++k) {
        outcomes[k].planned = schedule[begin + k];
        outcomes[k].dueSec = schedule[begin + k].dueSec;
    }
    if (n == 0)
        return outcomes;
    const auto &space = dac::conf::ConfigSpace::spark();
    const auto after = [](double sec) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(sec));
    };

    std::vector<dac::net::Socket> sockets;
    for (size_t c = 0; c < connections; ++c) {
        sockets.push_back(dac::net::connectTcp("127.0.0.1", port));
        dac::net::setNoDelay(sockets.back().fd());
    }
    // Times are on the schedule's clock: the slice's first request is
    // due 50 ms from now, once every thread is running.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(50) -
        after(schedule[begin].dueSec);
    const Clock::time_point giveUp =
        start + after(schedule[end - 1].dueSec + grace_sec);

    std::vector<char> sendFailed(n, 0);
    std::vector<std::thread> senders;
    std::vector<std::thread> receivers;
    for (size_t c = 0; c < connections; ++c) {
        const int fd = sockets[c].fd();
        senders.emplace_back([&, c, fd]() {
            for (size_t k = c; k < n; k += connections) {
                std::this_thread::sleep_until(start +
                                              after(outcomes[k].dueSec));
                outcomes[k].sentSec = since(start, Clock::now());
                const auto payload =
                    dac::net::encodeTuneRequest(outcomes[k].planned.request);
                const auto frame = dac::net::encodeFrame(
                    dac::net::MsgType::TuneRequest,
                    static_cast<uint32_t>(begin + k + 1), payload);
                if (!dac::net::writeAll(fd, frame.data(), frame.size())) {
                    // The receiver owns the outcomes; mark, merge later.
                    for (size_t j = k; j < n; j += connections)
                        sendFailed[j] = 1;
                    return;
                }
            }
        });
        receivers.emplace_back([&, c, fd]() {
            const size_t expected = (n - c + connections - 1) / connections;
            dac::net::FrameDecoder decoder;
            std::vector<uint8_t> buf(dac::net::kReadChunkBytes);
            size_t received = 0;
            while (received < expected && Clock::now() < giveUp) {
                const long got =
                    dac::net::readWithTimeout(fd, buf.data(), buf.size(),
                                              0.1);
                if (got == 0)
                    break; // server closed the connection
                if (got < 0)
                    continue; // timeout: re-check the give-up time
                decoder.feed(buf.data(), static_cast<size_t>(got));
                dac::net::Frame frame;
                for (;;) {
                    const auto result = decoder.next(&frame);
                    if (result == dac::net::FrameDecoder::Result::Malformed)
                        return;
                    if (result != dac::net::FrameDecoder::Result::Frame)
                        break;
                    const size_t k = frame.requestId - 1 - begin;
                    if (frame.requestId <= begin || k >= n ||
                        k % connections != c)
                        continue;
                    Outcome &o = outcomes[k];
                    o.doneSec = since(start, Clock::now());
                    ++received;
                    try {
                        if (frame.type == dac::net::MsgType::Error) {
                            o.error = "server error: " +
                                      dac::net::decodeError(frame.payload);
                        } else {
                            o.response = dac::net::decodeTuneResponse(
                                frame.payload, space, frame.version);
                            o.answered = true;
                        }
                    } catch (const dac::net::ProtocolError &e) {
                        o.error = std::string("bad reply: ") + e.what();
                    }
                    if (spans != nullptr && o.answered &&
                        tracedSlice(o.dueSec))
                        recordRequestSpans(*spans, frame.requestId, o);
                }
            }
        });
    }
    for (auto &t : receivers)
        t.join();
    // A sender can only still be blocked if the server stopped reading;
    // shutting the sockets down unblocks it.
    for (auto &s : sockets)
        ::shutdown(s.fd(), SHUT_RDWR);
    for (auto &t : senders)
        t.join();
    for (size_t k = 0; k < n; ++k) {
        Outcome &o = outcomes[k];
        if (!o.answered && o.error.empty())
            o.error = sendFailed[k] ? "connection lost on send" : "timed out";
    }
    return outcomes;
}

ClosedLoopResult
runClosedLoop(uint16_t port, const WorkloadSpec &spec, uint64_t seed,
              const std::vector<dac::service::ModelKey> &cold_keys,
              size_t connections, double seconds)
{
    std::vector<std::vector<Outcome>> perConnection(connections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c]() {
            RequestSource source(spec, seed, c, connections, cold_keys);
            dac::net::Client client("127.0.0.1", port);
            while (Clock::now() < end) {
                Outcome o;
                o.planned = source.next();
                o.dueSec = o.sentSec = since(start, Clock::now());
                try {
                    o.response = client.request(o.planned.request);
                    o.answered = true;
                } catch (const dac::net::RpcError &e) {
                    o.error = e.what();
                }
                o.doneSec = since(start, Clock::now());
                perConnection[c].push_back(std::move(o));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    ClosedLoopResult result;
    result.seconds = seconds;
    for (auto &list : perConnection) {
        for (Outcome &o : list)
            result.outcomes.push_back(std::move(o));
    }
    return result;
}

std::vector<double>
ClosedLoopResult::windowRates() const
{
    const auto windows = static_cast<size_t>(std::max(1.0, seconds));
    const double width = seconds / static_cast<double>(windows);
    std::vector<double> rates(windows, 0.0);
    for (const Outcome &o : outcomes) {
        if (o.answered && !o.response.degraded && o.doneSec < seconds)
            rates[std::min(windows - 1,
                           static_cast<size_t>(o.doneSec / width))] += 1.0;
    }
    for (double &rate : rates)
        rate /= width;
    return rates;
}

} // namespace perfbench
