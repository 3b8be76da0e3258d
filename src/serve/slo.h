/**
 * @file
 * Sliding-window SLO tracking for the serve daemon.
 *
 * The SLO is stated the way an operator states it: "p(latency <=
 * objective) over the last W seconds, with an error budget of B".
 * The tracker keeps one bucket per second of the window (requests,
 * latency violations, transport/model errors) and rotates in O(1) on
 * the recording path; a snapshot folds the live window into:
 *
 *   violation fraction  v = (latency violations + errors) / requests
 *   burn rate           v / B
 *
 * Burn rate 1.0 means the service is consuming its budget exactly as
 * fast as allowed; >1 means an alert (the window is unhealthy). The
 * math follows the multiwindow burn-rate alerting idiom from the SRE
 * literature, trimmed to a single window — the time-series sampler is
 * the place to watch multiple horizons from, since it snapshots the
 * exported gauges at every interval.
 *
 * Recording is mutex-guarded but cheap (one lock per completed
 * request on the I/O loop that served it, after the prediction) and
 * only counts. The exported gauges (`serve.slo_*`) exist from
 * construction and change only on snapshot(); the server calls it on
 * every I/O-loop tick, so scrapes see the window age out even when
 * traffic stops, without the scraper touching the tracker.
 */

#ifndef MTPERF_SERVE_SLO_H_
#define MTPERF_SERVE_SLO_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mtperf::serve {

struct SloOptions
{
    double latencyObjectiveUs = 50000.0; //!< per-request target
    double errorBudget = 0.01; //!< tolerated violation fraction
    std::uint32_t windowSeconds = 60;
};

/** Point-in-time view of the window. */
struct SloSnapshot
{
    double latencyObjectiveUs = 0.0;
    double errorBudget = 0.0;
    std::uint32_t windowSeconds = 0;
    std::uint64_t requests = 0;   //!< completed (ok + error) in window
    std::uint64_t violations = 0; //!< latency objective misses
    std::uint64_t errors = 0;     //!< ERROR replies in the window
    double burnRate = 0.0;        //!< violation fraction / budget
    bool healthy = true;          //!< burnRate <= 1
};

class SloTracker
{
  public:
    explicit SloTracker(SloOptions options = {});

    /** A request completed with the given end-to-end latency. */
    void recordLatency(double latencyUs);

    /** A request failed with an ERROR reply. */
    void recordError();

    /** Fold the window and export it to the `serve.slo_*` gauges. */
    SloSnapshot snapshot();

    const SloOptions &options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Bucket
    {
        std::int64_t second = -1; //!< epoch second this bucket covers
        std::uint64_t requests = 0;
        std::uint64_t violations = 0;
        std::uint64_t errors = 0;
    };

    Bucket &bucketFor(std::int64_t second); //!< callers hold mutex_
    std::int64_t nowSecond() const;
    SloSnapshot fold(std::int64_t second);  //!< callers hold mutex_
    void exportGauges(const SloSnapshot &snap);

    const SloOptions options_;
    const Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<Bucket> buckets_;
};

} // namespace mtperf::serve

#endif // MTPERF_SERVE_SLO_H_
