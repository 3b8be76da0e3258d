/**
 * @file
 * Scoped-span tracing with Chrome trace-event JSON output.
 *
 * Any `mtperf <cmd> --trace-out FILE` run records wall-clock spans
 * from the instrumented pipeline stages (simulate/collect, tree
 * grow/fit/prune, CV folds, serve batches) and writes a file loadable
 * by Perfetto (https://ui.perfetto.dev) or chrome://tracing, with one
 * track per thread (named via obs/thread_info).
 *
 * Cost model: when tracing is disabled — the default — a ScopedSpan
 * is one relaxed atomic load in the constructor and one in the
 * destructor; no clock reads, no allocation. When enabled, each span
 * costs two steady_clock reads and one small-vector append into a
 * thread-local buffer (amortized, no locks on the hot path; the
 * buffer's mutex is only contended during final collection).
 *
 * Spans nest naturally (Chrome's "X" complete events stack by
 * begin/end times), so instrumenting a phase that calls an
 * instrumented sub-phase just works.
 */

#ifndef MTPERF_OBS_TRACE_H_
#define MTPERF_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace mtperf::obs {

namespace detail {
extern std::atomic<bool> traceEnabled;
} // namespace detail

/** True while a trace session is recording. */
inline bool
traceEnabled()
{
    return detail::traceEnabled.load(std::memory_order_relaxed);
}

/**
 * Begin a trace session: clear previously buffered events, set the
 * session epoch (timestamps are microseconds from here) and enable
 * recording.
 */
void startTrace();

/** Stop recording; buffered events stay readable. */
void stopTrace();

/**
 * Record an instant event (a vertical marker in the viewer), e.g. a
 * checkpoint write. No-op when tracing is disabled.
 */
void traceInstant(const char *category, std::string name);

/**
 * Absolute steady-clock microseconds, for callers that measure a
 * span themselves (e.g. the server timing one request's predict and
 * reply stages, named after its trace id). Pair with
 * traceCompleteSpan(); the session epoch is subtracted there.
 */
std::int64_t traceNowMicros();

/**
 * Record a caller-measured complete span on the calling thread's
 * track. @p startMicros / @p endMicros are traceNowMicros() values;
 * negative durations clamp to zero. No-op when tracing is disabled.
 */
void traceCompleteSpan(const char *category, std::string name,
                       std::int64_t startMicros,
                       std::int64_t endMicros);

/**
 * Label this process's track group in the viewer ("mtperf serve",
 * "mtperf predict"). Events always carry the real pid, so traces
 * from a client and a server process merge without tid collisions;
 * the label tells the two apart.
 */
void setTraceProcessLabel(std::string label);

/** `1f3a...` — the canonical 16-digit hex spelling of a trace id,
 * used in span names (`client.predict trace=<hex>`) so one request's
 * client→server chain greps out of a merged trace. */
std::string traceIdHex(std::uint64_t traceId);

/**
 * Everything recorded so far as Chrome trace-event JSON:
 * {"traceEvents":[...]} with "X" (complete) span events, "i" instant
 * events and "M" thread-name metadata, one tid per mtperf thread.
 */
std::string traceToJson();

/**
 * Stop the session and write traceToJson() crash-safely
 * (atomic_file). Fault site: `obs.flush`.
 */
void writeTraceFile(const std::string &path);

/**
 * RAII span: records [construction, destruction) on the calling
 * thread's track. The name may carry runtime detail ("sim.workload
 * mcf-like"); the category groups spans for viewer filtering ("sim",
 * "tree", "cv", "serve", "pool").
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *category, std::string name);

    /** Literal-only overload that skips the string when disabled. */
    ScopedSpan(const char *category, const char *name);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool armed_ = false;
    const char *category_ = nullptr;
    std::string name_;
    std::int64_t startMicros_ = 0;
};

} // namespace mtperf::obs

#endif // MTPERF_OBS_TRACE_H_
