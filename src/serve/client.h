/**
 * @file
 * C++ client for the mtperf prediction server.
 *
 * One connected socket, blocking request/response with transparent
 * RETRY handling (bounded exponential backoff when a server asks for
 * a resubmission). This client powers `mtperf predict --connect` and
 * the serve and telemetry tests.
 *
 * Any server-reported failure or connection loss raises FatalError
 * carrying the server's message, so callers inherit the CLI's
 * exit-code contract for free.
 */

#ifndef MTPERF_SERVE_CLIENT_H_
#define MTPERF_SERVE_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.h"
#include "common/socket.h"
#include "serve/protocol.h"

namespace mtperf::serve {

/** Hard ceiling of the RETRY backoff envelope, in milliseconds. */
inline constexpr int kRetryDelayCapMs = 200;

/**
 * Seeded, jittered exponential backoff for RETRY resubmission.
 *
 * The envelope doubles from the initial delay up to the cap; each
 * wait is drawn uniformly from [envelope/2, envelope] ("equal
 * jitter"), so clients that were shed together do not resubmit in
 * lockstep and re-overload the server, while every wait keeps at
 * least half the intended envelope. Deterministic per seed: the same
 * seed replays the same schedule, which is what the tests pin.
 */
class RetryBackoff
{
  public:
    RetryBackoff(int initial_delay_ms, int cap_ms, std::uint64_t seed)
        : envelopeMs_(initial_delay_ms > 0 ? initial_delay_ms : 1),
          capMs_(cap_ms > 0 ? cap_ms : 1),
          rng_(seed)
    {}

    /** The next wait, advancing the envelope. Always >= 1. */
    int
    nextDelayMs()
    {
        const int envelope = std::min(envelopeMs_, capMs_);
        envelopeMs_ = std::min(envelopeMs_ * 2, capMs_);
        const int half = envelope / 2;
        const int jitter = static_cast<int>(rng_.uniformInt(
            static_cast<std::uint64_t>(envelope - half + 1)));
        return std::max(1, half + jitter);
    }

  private:
    int envelopeMs_;
    int capMs_;
    Rng rng_;
};

/**
 * A process-unique backoff seed: deterministic within a process (the
 * n-th client always gets the n-th seed) but distinct per client, so
 * concurrent clients' retry schedules diverge.
 */
std::uint64_t defaultRetryJitterSeed();

/** A connected prediction-service client. */
class Client
{
  public:
    struct Options
    {
        int timeoutMs = 10000;  //!< receive timeout (0 = none)
        int retryMax = 50;      //!< RETRY resubmissions before giving up
        int retryDelayMs = 2;   //!< initial backoff (doubles, capped)
        /** Backoff jitter seed; 0 draws a unique per-client seed. */
        std::uint64_t retryJitterSeed = 0;
        /**
         * Model key attached to every PREDICT this client sends.
         * Empty targets the server's default model with a request
         * byte stream identical to pre-multi-model clients.
         */
        std::string modelKey;
    };

    /**
     * Connect to @p address ("HOST[:PORT]" or "unix:PATH").
     * @throw FatalError when the connection fails.
     */
    static Client connect(const std::string &address,
                          std::uint16_t default_port,
                          Options options);
    static Client connect(const std::string &address,
                          std::uint16_t default_port);

    /**
     * Predict @p rows (flat, row-major, @p cols values per row).
     * Handles RETRY backpressure internally.
     * @throw FatalError on a server error or connection loss.
     */
    PredictResponse predict(std::span<const double> rows,
                            std::size_t cols,
                            bool want_attribution = false);

    /** Model identity, schema and leaf-model listing. */
    std::string info();

    /**
     * Ask the server to reload its model file.
     * @throw FatalError with the server's message when the new file
     * is corrupt (the server keeps serving the old model).
     */
    void reload();

    /** Ask the server to shut down (acknowledged before it stops). */
    void shutdown();

    void close() { sock_.close(); }

    /**
     * The trace id the n-th predict of this client gets (n counts
     * from 1). Deterministic per client — the jitter seed mixed with
     * the call ordinal — and never 0, so a traced request
     * can be located in the server's trace by a test that knows the
     * seed. Ids are only attached while obs tracing is enabled.
     */
    std::uint64_t predictTraceId(std::uint64_t ordinal) const;

  private:
    Client(net::Socket sock, Options options)
        : sock_(std::move(sock)),
          options_(options),
          jitterSeed_(options.retryJitterSeed != 0
                          ? options.retryJitterSeed
                          : defaultRetryJitterSeed())
    {}

    /** Send @p type+@p payload, wait for the matching reply. */
    Frame call(MsgType type, std::string payload);

    net::Socket sock_;
    Options options_;
    std::uint64_t jitterSeed_;
    std::uint32_t nextId_ = 1;
    std::uint64_t callCount_ = 0;
    std::uint64_t predictCount_ = 0;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_CLIENT_H_
