#include "serve/slo.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace mtperf::serve {

SloTracker::SloTracker(SloOptions options)
    : options_(options), epoch_(Clock::now()),
      buckets_(options.windowSeconds)
{
    mtperf_assert(options_.windowSeconds > 0 &&
                      options_.errorBudget > 0.0 &&
                      options_.latencyObjectiveUs > 0.0,
                  "bad SLO options");
    snapshot(); // create the gauges before the first scrape
}

std::int64_t
SloTracker::nowSecond() const
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               Clock::now() - epoch_)
        .count();
}

SloTracker::Bucket &
SloTracker::bucketFor(std::int64_t second)
{
    Bucket &bucket =
        buckets_[static_cast<std::size_t>(second) % buckets_.size()];
    if (bucket.second != second)
        bucket = Bucket{second, 0, 0, 0}; // rotate: reuse the slot
    return bucket;
}

SloSnapshot
SloTracker::fold(std::int64_t second)
{
    SloSnapshot snap;
    snap.latencyObjectiveUs = options_.latencyObjectiveUs;
    snap.errorBudget = options_.errorBudget;
    snap.windowSeconds = options_.windowSeconds;
    for (const Bucket &bucket : buckets_) {
        // Live buckets cover (now - window, now]; everything else is
        // a stale slot waiting to be rotated.
        if (bucket.second < 0 ||
            bucket.second <= second - options_.windowSeconds)
            continue;
        // An ERROR reply never records a latency, so completed
        // requests = latency-recorded ones + errored ones.
        snap.requests += bucket.requests + bucket.errors;
        snap.violations += bucket.violations;
        snap.errors += bucket.errors;
    }
    if (snap.requests != 0) {
        const double fraction =
            static_cast<double>(snap.violations + snap.errors) /
            static_cast<double>(snap.requests);
        snap.burnRate = fraction / options_.errorBudget;
    }
    snap.healthy = snap.burnRate <= 1.0;
    return snap;
}

void
SloTracker::exportGauges(const SloSnapshot &snap)
{
    static obs::Gauge &burn = obs::gauge("serve.slo_burn_rate_milli");
    static obs::Gauge &requests =
        obs::gauge("serve.slo_window_requests");
    static obs::Gauge &violations =
        obs::gauge("serve.slo_window_violations");
    static obs::Gauge &healthy = obs::gauge("serve.slo_healthy");
    burn.set(static_cast<std::int64_t>(snap.burnRate * 1000.0));
    requests.set(static_cast<std::int64_t>(snap.requests));
    violations.set(
        static_cast<std::int64_t>(snap.violations + snap.errors));
    healthy.set(snap.healthy ? 1 : 0);
}

void
SloTracker::recordLatency(double latencyUs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Bucket &bucket = bucketFor(nowSecond());
    ++bucket.requests;
    if (latencyUs > options_.latencyObjectiveUs)
        ++bucket.violations;
}

void
SloTracker::recordError()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++bucketFor(nowSecond()).errors;
}

SloSnapshot
SloTracker::snapshot()
{
    SloSnapshot snap;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap = fold(nowSecond());
    }
    exportGauges(snap);
    return snap;
}

} // namespace mtperf::serve
