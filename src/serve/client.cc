#include "serve/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace mtperf::serve {

std::uint64_t
defaultRetryJitterSeed()
{
    // Sequential draw mixed through splitmix64 so neighboring clients
    // get well-separated Rng streams, not adjacent seeds.
    static std::atomic<std::uint64_t> next{1};
    std::uint64_t z = next.fetch_add(1, std::memory_order_relaxed);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Client
Client::connect(const std::string &address, std::uint16_t default_port,
                Options options)
{
    const net::Endpoint endpoint =
        net::parseEndpoint(address, default_port);
    return Client(net::connectTo(endpoint, options.timeoutMs), options);
}

Client
Client::connect(const std::string &address, std::uint16_t default_port)
{
    return connect(address, default_port, Options{});
}

Frame
Client::call(MsgType type, std::string payload)
{
    // Each call gets its own deterministic jitter stream so a replay
    // of the same client reproduces the same schedule, call by call.
    RetryBackoff backoff(options_.retryDelayMs, kRetryDelayCapMs,
                         jitterSeed_ + 0x9e3779b97f4a7c15ULL * ++callCount_);
    for (int attempt = 0; attempt <= options_.retryMax; ++attempt) {
        Frame request{type, nextId_++, payload};
        writeFrame(sock_.fd(), request);
        Frame reply;
        if (!readFrame(sock_.fd(), reply, "server"))
            mtperf_fatal("server closed the connection");
        if (reply.id != request.id)
            mtperf_fatal("response id ", reply.id,
                         " does not match request id ", request.id,
                         " (pipelining misuse?)");
        if (reply.type == kMsgRetry) {
            // Explicit backpressure: wait a jittered slot, resubmit.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff.nextDelayMs()));
            continue;
        }
        if (reply.type == kMsgError) {
            const ErrorInfo error = decodeError(reply.payload);
            mtperf_fatal("server error (code ", error.code, "): ",
                         error.message);
        }
        if (reply.type != static_cast<MsgType>(type | kMsgReplyBit))
            mtperf_fatal("unexpected reply type ",
                         static_cast<int>(reply.type), " to request ",
                         static_cast<int>(type));
        return reply;
    }
    mtperf_fatal("server kept replying RETRY after ",
                 options_.retryMax, " attempts (overloaded)");
}

std::uint64_t
Client::predictTraceId(std::uint64_t ordinal) const
{
    // splitmix64 over (seed, ordinal): deterministic per client, well
    // separated between neighboring calls, and never zero (zero is
    // the protocol's "untraced" sentinel).
    std::uint64_t z = jitterSeed_ + 0x9e3779b97f4a7c15ULL * ordinal;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

PredictResponse
Client::predict(std::span<const double> rows, std::size_t cols,
                bool want_attribution)
{
    PredictRequest request;
    request.wantAttribution = want_attribution;
    request.modelKey = options_.modelKey;
    request.cols = static_cast<std::uint32_t>(cols);
    request.rows = static_cast<std::uint32_t>(
        cols == 0 ? 0 : rows.size() / cols);
    request.values.assign(rows.begin(), rows.end());
    const std::uint64_t ordinal = ++predictCount_;
    std::string spanName;
    if (obs::traceEnabled()) {
        // The span covers the whole exchange, RETRY resubmits
        // included, under the id the server's spans will carry too.
        request.traceId = predictTraceId(ordinal);
        spanName = "client.predict trace=" +
                   obs::traceIdHex(request.traceId) +
                   " rows=" + std::to_string(request.rows);
    }
    obs::ScopedSpan span("client", std::move(spanName));
    const Frame reply =
        call(kMsgPredict, encodePredictRequest(request));
    return decodePredictResponse(reply.payload);
}

std::string
Client::info()
{
    return call(kMsgInfo, {}).payload;
}

void
Client::reload()
{
    call(kMsgReload, {});
}

void
Client::shutdown()
{
    call(kMsgShutdown, {});
}

} // namespace mtperf::serve
