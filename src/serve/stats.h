/**
 * @file
 * Serving-side counters and latency percentiles, backed by the
 * process-wide obs registry.
 *
 * The original serving-only geometric-bucket histogram was promoted
 * to obs::Histogram (src/obs/metrics.h) — same layout (96 buckets
 * from 1us growing 25% per step), but with percentile interpolation
 * inside the bucket instead of reporting the bucket's upper bound,
 * and merge/subtract support. ServeStats keeps its per-instance
 * semantics (a fresh server starts at zero even though the registry
 * is process-wide) by capturing a baseline of the shared `serve.*`
 * counters at construction and reporting deltas: the same numbers
 * thus appear in Server::stats(), in `/metrics` scrapes and in
 * `--metrics-out` dumps, from one source of truth.
 *
 * Everything stays lock-free (relaxed atomics): the counters sit on
 * the request hot path and must not serialize the I/O loops.
 */

#ifndef MTPERF_SERVE_STATS_H_
#define MTPERF_SERVE_STATS_H_

#include <cstdint>

#include "obs/metrics.h"
#include "serve/slo.h"

namespace mtperf::serve {

/** One consistent-enough read of every counter. */
struct StatsSnapshot
{
    std::uint64_t connections = 0;  //!< connections accepted
    std::uint64_t requests = 0;     //!< frames dispatched (all types)
    std::uint64_t predictRequests = 0;
    std::uint64_t rowsPredicted = 0;
    std::uint64_t errors = 0;       //!< error replies + dropped conns
    std::uint64_t reloads = 0;      //!< successful hot reloads
    std::uint64_t reloadFailures = 0;
    std::int64_t connectionsActive = 0; //!< open connections right now
    std::size_t models = 0;         //!< registered models (0 = not set)
    SloSnapshot slo;                //!< sliding-window SLO view
};

/**
 * The server's counter set, a view over the shared `serve.*` metrics.
 * All methods are thread-safe; snapshot() reports this instance's
 * contribution (registry value minus the construction-time baseline).
 */
class ServeStats
{
  public:
    explicit ServeStats(SloOptions slo = {});

    void countConnection() { connections_.increment(); }
    void countRequest() { requests_.increment(); }
    void countPredict(std::uint64_t rows);

    void
    countError()
    {
        errors_.increment();
        slo_.recordError();
    }

    void countReload(bool ok);

    /** Record one predict request's service latency. */
    void
    recordLatency(double micros)
    {
        latency_.record(micros);
        slo_.recordLatency(micros);
    }

    /** Also folds the SLO window into the `serve.slo_*` gauges. */
    StatsSnapshot snapshot() const;

  private:
    obs::Counter &connections_;
    obs::Counter &requests_;
    obs::Counter &predictRequests_;
    obs::Counter &rowsPredicted_;
    obs::Counter &errors_;
    obs::Counter &reloads_;
    obs::Counter &reloadFailures_;
    obs::Histogram &latency_;
    obs::Gauge &connectionsActive_;

    /** Registry values when this instance was created. */
    StatsSnapshot base_;

    /** Per-instance by construction; no baseline delta needed. */
    mutable SloTracker slo_;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_STATS_H_
