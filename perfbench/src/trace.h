/**
 * @file
 * The benchmark's own span recorder and small statistics helpers.
 *
 * Spans are recorded only from the benchmark's files, around each call
 * into a library layer: a span has a name ("<layer>.<operation>"), a
 * start and end on the steady clock, its own id, the id of the span
 * that caused it and, for serve requests, the request id. They are kept
 * in memory and written out once, when the run ends.
 *
 * A Span always measures its own duration, because the untraced run
 * needs the same timings; it records itself only while tracing is on.
 */

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time (all threads), in nanoseconds. */
std::int64_t processCpuNs();

/** One finished span. */
struct SpanRecord
{
    const char *name = "";  //!< "<layer>.<operation>", a string literal
    std::string detail;     //!< e.g. the workload spec a sim span ran
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 = a root span
    std::uint64_t request = 0; //!< serve request id, 0 elsewhere
};

/** Process-wide switch and store for spans. */
class Trace
{
  public:
    static void enable(bool on);
    static bool on();

    /** A fresh span id (never 0). */
    static std::uint64_t newId();

    /** Reserve @p n consecutive ids; @return the first. */
    static std::uint64_t reserveIds(std::uint64_t n);

    /** Store a finished span (thread-safe). */
    static void record(SpanRecord span);

    /** Every span recorded so far. */
    static std::vector<SpanRecord> all();

    /** Write every span as a Chrome/Perfetto JSON trace to @p path. */
    static void write(const std::string &path);
};

/**
 * Spans of serve requests are sampled: only requests whose id is a
 * multiple of this record theirs, which keeps a traced serve run's
 * spans to tens of megabytes.
 */
inline constexpr std::uint64_t kRequestSampling = 16;

/** Whether spans of request @p request are recorded (0: not a request). */
inline bool
sampledRequest(std::uint64_t request)
{
    return request % kRequestSampling == 0;
}

/** Parent marker: take the innermost open span of this thread. */
inline constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

/**
 * RAII span. Construction starts the clock; seconds() reads the
 * elapsed time; destruction (or end()) stops it and, while tracing is
 * on and its request is sampled, records the span. Spans of one thread
 * nest through a thread-local stack; a span started on another thread
 * names its parent explicitly.
 */
class Span
{
  public:
    explicit Span(const char *name, std::string detail = {},
                  std::uint64_t parent = kInheritParent,
                  std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Stop now (idempotent). @return the duration in seconds. */
    double end();

    /** Elapsed seconds (final once ended). */
    double seconds() const;

    std::uint64_t id() const { return record_.id; }

  private:
    SpanRecord record_;
    bool ended_ = false;
    bool pushed_ = false;
};

/**
 * Self time per layer: each span's duration minus the part of it its
 * children cover, summed by the span-name prefix before the first '.'.
 */
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord> &spans);

/**
 * Share of the time of spans named @p parent_name that their direct
 * children cover.
 */
double childCoverage(const std::vector<SpanRecord> &spans,
                     const std::string &parent_name);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The @p p quantile (nearest rank, p in [0, 1]) of @p values; infinite
 * entries count as the largest. 0 when empty.
 */
double quantile(std::vector<double> values, double p);

/** Peak resident set of this process, in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
