/**
 * @file
 * Process-wide metrics: named counters, gauges and geometric-bucket
 * histograms behind one registry.
 *
 * The paper's premise is that well-chosen event counters explain a
 * machine's performance; this module applies the same discipline to
 * mtperf itself. Every subsystem (simulator, tree trainer, CV
 * harness, thread pool, serve daemon) publishes its counters here, so
 * the serve `/metrics` scrape, the `--metrics-out` end-of-run dump and
 * the bench reports all read one source of truth.
 *
 * Hot-path contract: recording is lock-free (relaxed atomics) and
 * never allocates. Call sites resolve a metric once —
 *
 *     static obs::Counter &rows = obs::counter("serve.rows_predicted");
 *     rows.add(n);
 *
 * — so the name lookup (mutex + map) is paid only on first use.
 * Metrics live for the whole process (the registry never removes
 * one); per-instance views are taken by snapshot deltas, not by
 * per-instance metric objects.
 *
 * Lock-free is not free. Every thread that writes a metric writes the
 * same cache line, so a process-wide metric written per instruction
 * or per row from several threads serialises them on that line. On
 * such a path, count in the owning object and publish the delta per
 * batch, as uarch::Decoder does (every 65,536 lookups, on reset and on
 * destruction).
 *
 * Naming convention: dot-separated `component.metric[_unit]`,
 * lowercase, e.g. `sim.sections_simulated`, `tree.leaf_fits`,
 * `pool.task_micros`. Components in use: sim, tree, cv, pool, serve.
 *
 * In the spirit of counter cross-validation (Röhl et al.), the
 * registry also carries named *invariants* — predicates over counter
 * values such as "rows predicted == rows batched" — checked by
 * validateInvariants(); a violation warns loudly instead of letting a
 * miscounted pipeline masquerade as a healthy one.
 */

#ifndef MTPERF_OBS_METRICS_H_
#define MTPERF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mtperf::obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void increment() { add(1); }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value (e.g. a queue depth). */
class Gauge
{
  public:
    void
    set(std::int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
        raiseMax(value);
    }

    void
    add(std::int64_t delta)
    {
        raiseMax(value_.fetch_add(delta, std::memory_order_relaxed) +
                 delta);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Highest value ever set()/add()ed to (monotonic watermark). */
    std::int64_t
    maxValue() const
    {
        return max_.load(std::memory_order_relaxed);
    }

  private:
    void
    raiseMax(std::int64_t now)
    {
        std::int64_t seen = max_.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/** Bucket layout of a geometric histogram. */
struct HistogramConfig
{
    double firstBound = 1.0; //!< upper bound of bucket 0
    double growth = 1.25;    //!< bound ratio between adjacent buckets
    std::size_t buckets = 96;

    bool
    operator==(const HistogramConfig &o) const
    {
        return firstBound == o.firstBound && growth == o.growth &&
               buckets == o.buckets;
    }
};

class Histogram;

/**
 * A point-in-time copy of a histogram's buckets: mergeable,
 * subtractable (for per-instance deltas of a process-wide histogram)
 * and queryable for interpolated percentiles.
 */
class HistogramSnapshot
{
  public:
    HistogramSnapshot() = default;
    HistogramSnapshot(HistogramConfig config,
                      std::vector<std::uint64_t> buckets,
                      double sum);

    std::uint64_t count() const { return count_; }

    /** Sum of every recorded observation (clamped to bucket range). */
    double sum() const { return sum_; }

    /** Mean observation; 0 when empty. */
    double mean() const;

    /**
     * The @p p quantile (p in [0, 1]) of the recorded observations,
     * linearly interpolated within the containing bucket; 0 when
     * empty. The result is exact to within one bucket's width divided
     * by the bucket's population — far tighter than the bucket upper
     * bound the pre-interpolation implementation returned (which
     * overestimated by up to the full 25% bucket growth).
     */
    double percentile(double p) const;

    /** Accumulate @p other into this snapshot (same config). */
    void merge(const HistogramSnapshot &other);

    /**
     * Subtract @p baseline (an earlier snapshot of the same
     * histogram), yielding the observations recorded in between.
     * A baseline bucket larger than this one clamps to zero (and the
     * sum clamps at 0.0) instead of underflowing: two snapshots of a
     * live histogram are taken bucket-by-bucket without a global
     * lock, so a racing record() can make an "earlier" snapshot
     * appear ahead in one bucket.
     */
    void subtract(const HistogramSnapshot &baseline);

    const HistogramConfig &config() const { return config_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    friend class Histogram;

    HistogramConfig config_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Lock-free geometric-bucket histogram. record() is O(1): one log,
 * two relaxed atomic adds. Generalized from the serving latency
 * histogram so any subsystem can record durations or sizes.
 */
class Histogram
{
  public:
    explicit Histogram(HistogramConfig config = {});

    /** Record one observation (values <= 0 land in bucket 0). */
    void record(double value);

    std::uint64_t count() const;

    /** Interpolated percentile of everything recorded so far. */
    double percentile(double p) const;

    HistogramSnapshot snapshot() const;

    const HistogramConfig &config() const { return config_; }

    /** Upper bound of @p bucket. */
    double boundOf(std::size_t bucket) const;

    /** The bucket @p value falls in. */
    std::size_t bucketFor(double value) const;

  private:
    HistogramConfig config_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> sumBits_{0}; //!< double bits, CAS-added
};

/**
 * One registered invariant: name, human explanation, and a check that
 * returns an empty string when the invariant holds or a description
 * of the violation.
 */
struct Invariant
{
    std::string name;
    std::function<std::string()> check;
};

/** A violation found by validateInvariants(). */
struct InvariantViolation
{
    std::string name;
    std::string message;
};

/** Resolve (creating on first use) the counter called @p name. */
Counter &counter(const std::string &name);

/** Resolve (creating on first use) the gauge called @p name. */
Gauge &gauge(const std::string &name);

/**
 * Resolve (creating on first use) the histogram called @p name.
 * @p config applies only on creation; a second caller naming the same
 * histogram with a different config gets the existing one.
 */
Histogram &histogram(const std::string &name,
                     HistogramConfig config = {});

/**
 * Register a named cross-counter invariant. Re-registering a name
 * replaces the previous check (so a re-constructed subsystem does not
 * accumulate stale closures).
 */
void registerInvariant(const std::string &name,
                       std::function<std::string()> check);

/**
 * Run every registered invariant, warn (via common/logging) for each
 * violation, and return the violations.
 */
std::vector<InvariantViolation> validateInvariants();

/**
 * Every registered metric rendered as one JSON object:
 *   {"counters":{...},"gauges":{...},"histograms":{name:
 *    {"count":N,"mean":...,"p50":...,"p95":...,"p99":...}},
 *    "invariant_violations":[...]}
 * Keys are emitted in sorted (registration-map) order so dumps diff
 * cleanly.
 */
std::string metricsToJson();

/** Wire format of a metrics dump. */
enum class MetricsFormat
{
    Json,       //!< metricsToJson() object
    Prometheus, //!< text exposition (obs/prometheus.h)
};

/**
 * A coherent point-in-time copy of the whole registry, in sorted name
 * order. This is the enumeration API the time-series sampler and the
 * Prometheus exposition build on; individual values are read with
 * relaxed loads, so the snapshot is per-metric (not globally) atomic.
 */
struct MetricsSnapshot
{
    struct GaugeValue
    {
        std::int64_t value = 0;
        std::int64_t max = 0;
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, GaugeValue>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

MetricsSnapshot snapshotRegistry();

/**
 * Crash-safe (atomic_file) dump of the registry to @p path, running
 * invariant validation first. Fault site: `obs.flush`.
 */
void writeMetricsFile(const std::string &path,
                      MetricsFormat format = MetricsFormat::Json);

} // namespace mtperf::obs

#endif // MTPERF_OBS_METRICS_H_
