/**
 * @file
 * The serve stage, against the in-process server the fixture started
 * (default --shards 1 --io-threads 1):
 *
 *   1. closed loop: each of kClosedConnections connections sends
 *      single-row requests back to back, then 64-row requests;
 *   2. traced runs only: open loop, Poisson single-row PREDICTs at the
 *      fixed rates kLoRate and kHiRate from one generator thread over
 *      kConnections connections, each request timed from its
 *      scheduled send time;
 *   3. traced runs only, when the plan asks: a rate search for the
 *      highest rate that keeps p99 within kLatencyLimitUs with no
 *      growing backlog.
 *
 * Every reply is compared bit for bit with the scalar M5Prime::predict
 * of its row, and the server's row count with the client's.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/socket.h"
#include "ml/tree/m5prime.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "stages.h"
#include "trace.h"

namespace perfbench {

using namespace mtperf;

namespace {

/** A request later than this from its scheduled send misses. */
constexpr double kLatencyLimitUs = 1000.0;

/** Connections of the open-loop phases (at most the host's 4 cores). */
constexpr std::size_t kConnections = 4;

/**
 * Connections of the closed-loop phases, one client thread each: two
 * client threads and the server's I/O and batcher threads fill the 4
 * cores without oversubscribing them.
 */
constexpr std::size_t kClosedConnections = 2;

/** Rows per request in the closed-loop batch phase. */
constexpr std::size_t kBatchRows = 64;

/**
 * The fixed open-loop rates, in requests per second: about 10% and
 * 30% of serve_max_rps (~150k) on a 4-vCPU x86 VM. Nearer the knee
 * the p99 follows the host's noise more than the server.
 */
constexpr double kLoRate = 15000.0;
constexpr double kHiRate = 45000.0;

/** Rate ladder ratios: from kHiRate, or from lower when it misses. */
constexpr double kFineStep = 1.1;
constexpr double kCoarseStep = 1.3;

/** How long to wait for the last replies of a phase. */
constexpr std::int64_t kDrainNs = 2'000'000'000;

enum class Status : std::uint8_t { Pending, Ok, Retried, Failed };

/** The PREDICT frame for @p count rows starting at @p first. */
std::string
encodeRows(const Dataset &rows, std::size_t first, std::size_t count,
           std::uint32_t id)
{
    const std::size_t width = rows.numAttributes();
    serve::PredictRequest request;
    request.rows = static_cast<std::uint32_t>(count);
    request.cols = static_cast<std::uint32_t>(width);
    const auto flat = rows.flatValues().subspan(first * width, count * width);
    request.values.assign(flat.begin(), flat.end());
    serve::Frame frame;
    frame.type = serve::kMsgPredict;
    frame.id = id;
    frame.payload = serve::encodePredictRequest(request);
    return serve::encodeFrame(frame);
}

/**
 * Decode a PREDICT reply, under a span named @p decode_span, and
 * compare it with the scalar predictions of rows [first, first +
 * count). @return Ok, Retried or Failed.
 */
Status
checkReply(const serve::Frame &reply, const std::vector<double> &expected,
           std::size_t first, std::size_t count, const char *decode_span)
{
    if (reply.type == serve::kMsgRetry)
        return Status::Retried;
    if (reply.type != (serve::kMsgPredict | serve::kMsgReplyBit))
        return Status::Failed;
    serve::PredictResponse response;
    {
        Span span(decode_span, {}, kInheritParent, reply.id);
        response = serve::decodePredictResponse(reply.payload);
    }
    if (response.predictions.size() != count)
        return Status::Failed;
    return std::memcmp(response.predictions.data(), &expected[first],
                       count * sizeof(double)) == 0
               ? Status::Ok
               : Status::Failed;
}

/** Server-side CPU and context switches: the process minus the client. */
struct Usage
{
    double cpuUs = 0.0;
    double switches = 0.0;

    static Usage
    of(int who)
    {
        rusage u{};
        getrusage(who, &u);
        Usage usage;
        usage.cpuUs =
            static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) *
                1e6 +
            static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
        usage.switches = static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
        return usage;
    }

    Usage
    operator-(const Usage &o) const
    {
        return {cpuUs - o.cpuUs, switches - o.switches};
    }
};

/** What one open-loop phase measured. */
struct OpenLoopResult
{
    std::uint64_t sent = 0, ok = 0, retried = 0, failed = 0;
    std::uint64_t wrong = 0; //!< failed with a reply: error or mismatch
    std::uint64_t rowsOk = 0;
    std::vector<double> latencyUs; //!< from scheduled send; misses huge
    std::vector<double> rttUs;     //!< from actual send, Ok replies
    std::vector<double> lateUs;    //!< generator lateness per request
    bool backlogGrew = false;
    Usage clientUsage;             //!< the generating thread

    double seconds = 0.0;          //!< length of the schedule

    /**
     * The @p q quantile of latency within each kWindowSeconds window
     * of the schedule, and the lower quartile over the windows: the
     * host's episodes of interference, which last up to seconds, do
     * not move it unless they cover most of the phase.
     */
    double
    p(double q) const
    {
        return quantile(windowQuantiles(q), 0.25);
    }

    /** The @p q quantile of latency in each window, in order. */
    std::vector<double>
    windowQuantiles(double q) const
    {
        const std::size_t n = latencyUs.size();
        const std::size_t windows = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::llround(seconds / kWindowSeconds)),
            1, kMaxWindows);
        std::vector<double> per_window;
        for (std::size_t w = 0; w < windows; ++w) {
            const auto first = latencyUs.begin() +
                               static_cast<std::ptrdiff_t>(w * n / windows);
            const auto last =
                latencyUs.begin() +
                static_cast<std::ptrdiff_t>((w + 1) * n / windows);
            per_window.push_back(
                quantile(std::vector<double>(first, last), q));
        }
        return per_window;
    }

    bool
    valid() const
    {
        return sent > 0 && p(0.99) <= kLatencyLimitUs && !backlogGrew;
    }

    /** At kLoRate a window's p99 has 15 requests beyond it. */
    static constexpr double kWindowSeconds = 0.1;
    static constexpr std::size_t kMaxWindows = 30;
};

/** The load's view of the server. */
struct Target
{
    const Dataset &rows;
    const std::vector<double> &expected;
    net::Endpoint endpoint;
};

/**
 * Offer Poisson arrivals at @p rate for @p seconds over @p conns. One
 * thread sends each request at its scheduled time and, between sends,
 * polls the connections for replies without blocking, so that the
 * client holds one core and takes no wakeups. With @p traced each
 * request records a serve.request span (scheduled send to reply)
 * under @p parent, with write, reply and decode children.
 */
OpenLoopResult
runOpenLoop(const Target &target, std::vector<net::Socket> &conns,
            double rate, double seconds, Rng &rng, bool traced,
            std::uint64_t parent)
{
    const auto n =
        static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
    std::vector<std::int64_t> due(n);
    std::vector<std::uint32_t> row_of(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exponential(rate);
        due[i] = static_cast<std::int64_t>(t * 1e9);
        row_of[i] = static_cast<std::uint32_t>(
            rng.uniformInt(std::uint64_t{target.rows.size()}));
    }
    std::vector<std::int64_t> sent_at(n, 0), done_at(n, 0);
    std::vector<Status> status(n, Status::Pending);
    const std::uint64_t span_base = traced ? Trace::reserveIds(n) : 0;

    // Frames are encoded before the clock starts, so that the
    // generator's pace is set by its writes alone.
    std::vector<std::string> frames(n);
    for (std::size_t i = 0; i < n; ++i) {
        Span encode("serve.client_encode", {}, parent, i + 1);
        frames[i] = encodeRows(target.rows, row_of[i], 1,
                               static_cast<std::uint32_t>(i + 1));
    }

    const std::int64_t t0 = nowNs() + 2'000'000;
    const std::int64_t last_due = t0 + due.back();

    net::Poller poller;
    for (std::size_t c = 0; c < conns.size(); ++c)
        poller.add(conns[c].fd(), c);
    std::vector<serve::FrameAssembler> assemblers(conns.size());
    std::vector<net::PollEvent> events;
    std::vector<std::string> pending(conns.size());
    auto flush = [&](std::size_t c) {
        std::string &out = pending[c];
        std::size_t offset = 0;
        while (offset < out.size()) {
            const std::size_t wrote = net::writeSome(
                conns[c].fd(), out.data() + offset, out.size() - offset);
            if (wrote == 0)
                break;
            offset += wrote;
        }
        out.erase(0, offset);
    };
    auto receive = [&](std::size_t c, std::size_t &done) {
        char buffer[64 * 1024];
        bool eof = false;
        const std::size_t got =
            net::readSome(conns[c].fd(), buffer, sizeof buffer, &eof);
        if (eof)
            throw std::runtime_error("server closed a connection");
        // Acknowledge at once. The server's accepted sockets keep
        // Nagle's algorithm on, so a reply written while an earlier
        // one is unacknowledged waits for the ACK; with delayed ACKs
        // that ties one request's latency to the arrival of the next
        // on its connection.
        const int one = 1;
        setsockopt(conns[c].fd(), IPPROTO_TCP, TCP_QUICKACK, &one,
                   sizeof one);
        assemblers[c].feed(buffer, got);
        serve::Frame frame;
        while (assemblers[c].next(frame, "server")) {
            const std::size_t i = frame.id - 1;
            if (frame.id == 0 || i >= n || status[i] != Status::Pending)
                continue;
            done_at[i] = nowNs();
            {
                Span reply("serve.client_reply", {}, span_base + i,
                           frame.id);
                status[i] = checkReply(frame, target.expected, row_of[i], 1,
                                       "serve.client_decode");
            }
            ++done;
            if (traced && sampledRequest(frame.id)) {
                SpanRecord request;
                request.name = "serve.request";
                request.id = span_base + i;
                request.parent = parent;
                request.request = frame.id;
                request.startNs = t0 + due[i];
                request.endNs = done_at[i];
                Trace::record(std::move(request));
            }
        }
    };

    // Outstanding requests, sampled every millisecond while sending.
    std::vector<std::uint64_t> backlog;
    const Usage client_before = Usage::of(RUSAGE_THREAD);
    std::size_t next = 0, done = 0;
    std::int64_t next_sample = t0;
    for (std::int64_t now = nowNs();
         done < n && now < last_due + kDrainNs; now = nowNs()) {
        while (next < n && t0 + due[next] <= now) {
            sent_at[next] = now;
            const std::size_t c = next % conns.size();
            Span write("serve.client_write", {}, span_base + next,
                       next + 1);
            pending[c] += frames[next++];
            flush(c);
            now = nowNs();
        }
        for (std::size_t c = 0; c < conns.size(); ++c) {
            if (!pending[c].empty())
                flush(c);
        }
        if (now >= next_sample && now <= last_due) {
            backlog.push_back(next - done);
            next_sample = now + 1'000'000;
        }
        poller.wait(events, 0);
        for (const net::PollEvent &ev : events)
            receive(ev.tag, done);
    }
    const Usage client_usage = Usage::of(RUSAGE_THREAD) - client_before;

    OpenLoopResult result;
    result.sent = n;
    result.seconds = seconds;
    result.clientUsage = client_usage;
    const double miss_us = (seconds * 1e6) + kDrainNs * 1e-3;
    for (std::size_t i = 0; i < n; ++i) {
        const double scheduled = static_cast<double>(t0 + due[i]);
        result.lateUs.push_back(
            (static_cast<double>(sent_at[i]) - scheduled) * 1e-3);
        switch (status[i]) {
        case Status::Ok:
            ++result.ok;
            ++result.rowsOk;
            result.latencyUs.push_back(
                (static_cast<double>(done_at[i]) - scheduled) * 1e-3);
            result.rttUs.push_back(
                static_cast<double>(done_at[i] - sent_at[i]) * 1e-3);
            continue;
        case Status::Retried:
            ++result.retried;
            break;
        case Status::Failed:
            ++result.wrong;
            ++result.failed;
            break;
        case Status::Pending:
            ++result.failed;
            break;
        }
        result.latencyUs.push_back(miss_us);
    }

    // The backlog grows when the last quarter of the sending window
    // holds clearly more outstanding requests than the first quarter.
    if (backlog.size() >= 8) {
        const std::size_t quarter = backlog.size() / 4;
        double first = 0.0, last = 0.0;
        for (std::size_t i = 0; i < quarter; ++i) {
            first += static_cast<double>(backlog[i]);
            last += static_cast<double>(backlog[backlog.size() - 1 - i]);
        }
        first /= static_cast<double>(quarter);
        last /= static_cast<double>(quarter);
        result.backlogGrew = last > 2.0 * first + 16.0;
    }
    const std::vector<double> p50s = result.windowQuantiles(0.50);
    const std::vector<double> p99s = result.windowQuantiles(0.99);
    std::fprintf(stderr,
                 "perfbench: open loop %.0f req/s for %.2f s: %llu sent, "
                 "%llu ok; over %zu windows p50 best %.1f median %.1f us, "
                 "p99 best %.1f median %.1f us; generator late p99 %.1f "
                 "us; backlog %s -> %s\n",
                 rate, seconds, static_cast<unsigned long long>(result.sent),
                 static_cast<unsigned long long>(result.ok), p50s.size(),
                 result.p(0.50), median(p50s), result.p(0.99), median(p99s),
                 quantile(result.lateUs, 0.99),
                 result.backlogGrew ? "grew" : "steady",
                 result.valid() ? "valid" : "invalid");
    return result;
}

/**
 * The highest rate that keeps p99 within kLatencyLimitUs with no
 * growing backlog. Climbs a geometric ladder from the best valid fixed
 * rate until two steps in a row miss, then interpolates (log p99 on
 * log rate) where p99 crosses the limit between the last valid step
 * and the miss after it. Every step's result goes to @p account.
 */
double
searchMaxRate(const Target &target, std::vector<net::Socket> &conns,
              const OpenLoopResult &lo, const OpenLoopResult &hi,
              const ServePlan &plan, Rng &rng,
              const std::function<void(const OpenLoopResult &)> &account)
{
    double good = kLoRate / 4.0, good_p99 = 0.0;
    double factor = kCoarseStep;
    if (hi.valid()) {
        good = kHiRate;
        good_p99 = hi.p(0.99);
        factor = kFineStep;
    } else if (lo.valid()) {
        good = kLoRate;
        good_p99 = lo.p(0.99);
    }
    double max_rps = good;
    bool crossed = false;
    // The seed shifts the ladder by up to one step, so that the rates
    // it lands on do not quantize the result.
    double rate = good * std::pow(factor, rng.uniform() - 1.0);
    for (int step = 0, misses = 0; step < plan.searchSteps && misses < 2;
         ++step) {
        rate *= factor;
        const OpenLoopResult r = runOpenLoop(
            target, conns, rate, plan.searchStepSeconds, rng, false, 0);
        account(r);
        if (r.valid()) {
            good = max_rps = rate;
            good_p99 = r.p(0.99);
            crossed = false;
            misses = 0;
            continue;
        }
        if (misses++ == 0 && good_p99 > 0.0) {
            // First miss after a valid step: the crossing lies between
            // the two; a backlog that grew below the latency limit puts
            // it half way.
            const double span = std::log(r.p(0.99) / good_p99);
            const double reach =
                r.p(0.99) > kLatencyLimitUs && span > 0.0
                    ? std::log(kLatencyLimitUs / good_p99) / span
                    : 0.5;
            max_rps =
                good * std::pow(rate / good, std::clamp(reach, 0.0, 1.0));
            crossed = true;
        }
    }
    return crossed ? max_rps : good;
}

/** Connect @p count non-blocking sockets to the server. */
std::vector<net::Socket>
connectAll(const net::Endpoint &endpoint, std::size_t count)
{
    std::vector<net::Socket> conns;
    for (std::size_t c = 0; c < count; ++c) {
        conns.push_back(net::connectTo(endpoint, 10000));
        net::setNonBlocking(conns.back().fd());
    }
    return conns;
}

/** What a closed-loop phase measured. */
struct ClosedLoopResult
{
    std::uint64_t sent = 0, ok = 0, retried = 0, failed = 0;
    std::uint64_t rowsOk = 0;
    std::vector<std::int64_t> okAtNs; //!< completion time of Ok replies
    /**
     * Rows per second in each kSliceNs slice of the phase, upper
     * quartile over the slices.
     */
    double rowsPerSecond = 0.0;

    static constexpr std::int64_t kSliceNs = 100'000'000;
};

/**
 * Each of kClosedConnections threads sends @p rows_per_request-row
 * requests back to back on its own blocking connection for @p seconds.
 */
ClosedLoopResult
runClosedLoop(const Target &target, std::size_t rows_per_request,
              double seconds, std::uint64_t seed, std::uint64_t parent)
{
    std::vector<ClosedLoopResult> per(kClosedConnections);
    const std::int64_t started = nowNs();
    const std::int64_t deadline =
        started + static_cast<std::int64_t>(seconds * 1e9);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClosedConnections; ++c) {
            threads.emplace_back([&, c] {
                ClosedLoopResult &mine = per[c];
                Rng rng(seed * 31 + c);
                net::Socket sock = net::connectTo(target.endpoint, 10000);
                const std::size_t limit =
                    target.rows.size() - rows_per_request;
                for (std::uint32_t id = 1; nowNs() < deadline; ++id) {
                    const std::size_t first = rng.uniformInt(
                        static_cast<std::uint64_t>(limit));
                    Span request("serve.closed_request", {}, parent, id);
                    std::string bytes;
                    {
                        Span encode("serve.client_encode_closed", {},
                                    kInheritParent, id);
                        bytes = encodeRows(target.rows, first,
                                           rows_per_request, id);
                    }
                    serve::Frame reply;
                    {
                        Span wait("serve.client_wait", {}, kInheritParent,
                                  id);
                        net::writeAll(sock.fd(), bytes.data(), bytes.size());
                        if (!serve::readFrame(sock.fd(), reply, "server"))
                            reply.type = serve::kMsgError;
                    }
                    ++mine.sent;
                    switch (checkReply(reply, target.expected, first,
                                       rows_per_request,
                                       "serve.client_decode_closed")) {
                    case Status::Ok:
                        ++mine.ok;
                        mine.rowsOk += rows_per_request;
                        mine.okAtNs.push_back(nowNs());
                        break;
                    case Status::Retried:
                        ++mine.retried;
                        break;
                    default:
                        ++mine.failed;
                    }
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    ClosedLoopResult total;
    const std::size_t slices = static_cast<std::size_t>(std::max<std::int64_t>(
        1, (deadline - started) / ClosedLoopResult::kSliceNs));
    std::vector<std::uint64_t> per_slice(slices, 0);
    for (const ClosedLoopResult &r : per) {
        total.sent += r.sent;
        total.ok += r.ok;
        total.retried += r.retried;
        total.failed += r.failed;
        total.rowsOk += r.rowsOk;
        for (const std::int64_t at : r.okAtNs) {
            const auto slice = static_cast<std::size_t>(
                (at - started) / ClosedLoopResult::kSliceNs);
            if (slice < slices)
                per_slice[slice] += rows_per_request;
        }
    }
    std::vector<double> rates;
    for (const std::uint64_t rows : per_slice)
        rates.push_back(
            static_cast<double>(rows) /
            (static_cast<double>(ClosedLoopResult::kSliceNs) * 1e-9));
    total.rowsPerSecond = quantile(rates, 0.75);
    return total;
}

} // namespace

void
runServeStage(Fixture &fixture, const ServePlan &plan, std::uint64_t seed,
              Metrics &metrics, Outcome &outcome)
{
    Rng rng(seed ^ 0x5e7e5eedULL);
    const bool traced = Trace::on();

    std::uint64_t sent = 0, ok = 0, retried = 0, failed = 0;
    std::uint64_t server_rows = 0; // Ok rows, to reconcile with the server
    auto tally = [&](const auto &r) {
        sent += r.sent;
        ok += r.ok;
        retried += r.retried;
        failed += r.failed;
        server_rows += r.rowsOk;
        outcome.attempted += r.sent;
        outcome.failed += r.retried + r.failed;
    };

    const Target target{
        fixture.counters, fixture.expected,
        net::parseEndpoint(
            "127.0.0.1:" + std::to_string(fixture.server->port()), 0)};

    // A traced run's primary stage first times the single-row closed
    // loop untraced, the reference for the tracing overhead.
    double untraced_single = 0.0;
    if (traced && plan.probeOverhead) {
        Trace::enable(false);
        const ClosedLoopResult probe =
            runClosedLoop(target, 1, plan.closedSeconds, seed, 0);
        Trace::enable(true);
        tally(probe);
        untraced_single = probe.rowsPerSecond;
    }

    Span single_span("stage.serve_single");
    const ClosedLoopResult single =
        runClosedLoop(target, 1, plan.closedSeconds, seed, single_span.id());
    single_span.end();
    tally(single);

    Span batch_span("stage.serve_batch");
    const ClosedLoopResult batch = runClosedLoop(
        target, kBatchRows, plan.closedSeconds, seed, batch_span.id());
    batch_span.end();
    tally(batch);

    metrics.set("serve_single_req_per_s", single.rowsPerSecond, "req/s");
    metrics.set("serve_batch_rows_per_s", batch.rowsPerSecond, "rows/s");

    auto reconcile = [&] {
        const std::uint64_t counted = fixture.server->stats().rowsPredicted;
        outcome.check(counted == server_rows,
                      "server predicted " + std::to_string(counted) +
                          " rows, clients received " +
                          std::to_string(server_rows));
        outcome.check(failed == 0, "a served prediction failed or "
                                   "differed from scalar predict");
    };
    if (!traced) {
        reconcile();
        return;
    }

    // The open-loop phases. Their latencies swing by a quarter to a
    // third between runs on a shared host, too much to gate on, so
    // they are per-layer readings of traced runs.
    std::vector<net::Socket> conns =
        connectAll(target.endpoint, kConnections);
    Span lo_span("stage.serve_lo");
    const OpenLoopResult lo =
        runOpenLoop(target, conns, kLoRate, plan.fixedRateSeconds, rng,
                    true, lo_span.id());
    lo_span.end();
    tally(lo);

    obs::Histogram &service = obs::histogram("serve.predict_micros");
    obs::Counter &batches = obs::counter("serve.batches");
    obs::Counter &batch_rows = obs::counter("serve.batch_rows");
    const obs::HistogramSnapshot service_before = service.snapshot();
    const std::uint64_t batches_before = batches.value();
    const std::uint64_t batch_rows_before = batch_rows.value();
    const Usage usage_before = Usage::of(RUSAGE_SELF);
    Span hi_span("stage.serve_hi");
    const OpenLoopResult hi =
        runOpenLoop(target, conns, kHiRate, plan.fixedRateSeconds, rng,
                    true, hi_span.id());
    hi_span.end();
    const Usage server_usage =
        Usage::of(RUSAGE_SELF) - usage_before - hi.clientUsage;
    obs::HistogramSnapshot service_hi = service.snapshot();
    service_hi.subtract(service_before);
    const double hi_batches =
        static_cast<double>(batches.value() - batches_before);
    const double hi_batch_rows =
        static_cast<double>(batch_rows.value() - batch_rows_before);
    tally(hi);
    reconcile();

    // The search overloads the server on purpose: a refused or
    // unanswered request only marks its step invalid, and its counts
    // stay out of the reconciliation above. A wrong reply still fails.
    if (plan.searchSteps > 0) {
        Trace::enable(false);
        metrics.set("serve_max_rps",
                    searchMaxRate(target, conns, lo, hi, plan, rng,
                                  [&](const OpenLoopResult &r) {
                                      outcome.attempted += r.sent;
                                      outcome.failed += r.wrong;
                                      outcome.check(
                                          r.wrong == 0,
                                          "a rate-search reply failed or "
                                          "differed from scalar predict");
                                  }),
                    "req/s");
        Trace::enable(true);
    }

    metrics.set("serve_lo_p99_us", lo.p(0.99), "us");
    metrics.set("serve_hi_p50_us", hi.p(0.50), "us");
    metrics.set("serve_hi_p99_us", hi.p(0.99), "us");
    if (plan.probeOverhead && untraced_single > 0.0) {
        metrics.set("trace.overhead_pct",
                    (untraced_single - single.rowsPerSecond) /
                        untraced_single * 100.0,
                    "%");
    }
    std::vector<double> encode_ns, decode_ns;
    for (const SpanRecord &span : Trace::all()) {
        const double ns = static_cast<double>(span.endNs - span.startNs);
        if (std::strcmp(span.name, "serve.client_encode") == 0)
            encode_ns.push_back(ns);
        else if (std::strcmp(span.name, "serve.client_decode") == 0)
            decode_ns.push_back(ns);
    }
    const double service_p50 = service_hi.percentile(0.50);
    metrics.set("serve.client_encode_ns", median(encode_ns), "ns");
    metrics.set("serve.client_decode_ns", median(decode_ns), "ns");
    metrics.set("serve.service_p50_us", service_p50, "us");
    metrics.set("serve.service_p99_us", service_hi.percentile(0.99), "us");
    metrics.set("serve.wire_p50_us", median(hi.rttUs) - service_p50, "us");
    metrics.set("serve.rows_per_batch",
                hi_batches > 0.0 ? hi_batch_rows / hi_batches : 0.0, "rows");
    const double hi_requests = static_cast<double>(hi.sent);
    metrics.set("serve.ctx_switches_per_req",
                server_usage.switches / hi_requests, "count");
    metrics.set("serve.cpu_us_per_req", server_usage.cpuUs / hi_requests,
                "us");
    std::vector<double> late = lo.lateUs;
    late.insert(late.end(), hi.lateUs.begin(), hi.lateUs.end());
    metrics.set("serve.gen_late_p99_us", quantile(late, 0.99), "us");
    metrics.set("serve.sent", static_cast<double>(sent), "count");
    metrics.set("serve.ok", static_cast<double>(ok), "count");
    metrics.set("serve.retried", static_cast<double>(retried), "count");
    metrics.set("serve.failed", static_cast<double>(failed), "count");
}

} // namespace perfbench
