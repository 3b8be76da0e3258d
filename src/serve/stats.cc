#include "serve/stats.h"

#include <sstream>

namespace mtperf::serve {

namespace {

/**
 * The shared serve latency histogram. Kept at the layout the serving
 * path has always used: 1us first bound growing 25% per bucket, 96
 * buckets (bucket 95 tops out around 23 min).
 */
obs::Histogram &
latencyHistogram()
{
    return obs::histogram("serve.predict_micros");
}

} // namespace

ServeStats::ServeStats(SloOptions slo)
    : connections_(obs::counter("serve.connections")),
      requests_(obs::counter("serve.requests")),
      predictRequests_(obs::counter("serve.predict_requests")),
      rowsPredicted_(obs::counter("serve.rows_predicted")),
      errors_(obs::counter("serve.errors")),
      reloads_(obs::counter("serve.reloads")),
      reloadFailures_(obs::counter("serve.reload_failures")),
      latency_(latencyHistogram()),
      connectionsActive_(obs::gauge("serve.connections_active")),
      slo_(slo)
{
    base_.connections = connections_.value();
    base_.requests = requests_.value();
    base_.predictRequests = predictRequests_.value();
    base_.rowsPredicted = rowsPredicted_.value();
    base_.errors = errors_.value();
    base_.reloads = reloads_.value();
    base_.reloadFailures = reloadFailures_.value();

    // Cross-validate the pipeline's own bookkeeping: every row the
    // stats claim was predicted must have passed through a batch (the
    // server counts serve.batch_rows as it predicts each request).
    // Registered here (idempotently) so any serving process carries
    // the check.
    obs::registerInvariant("serve.rows_predicted_vs_batched", [] {
        const std::uint64_t predicted =
            obs::counter("serve.rows_predicted").value();
        const std::uint64_t batched =
            obs::counter("serve.batch_rows").value();
        if (predicted == batched)
            return std::string();
        std::ostringstream os;
        os << "serve.rows_predicted=" << predicted
           << " != serve.batch_rows=" << batched;
        return os.str();
    });
}

void
ServeStats::countPredict(std::uint64_t rows)
{
    predictRequests_.increment();
    rowsPredicted_.add(rows);
}

void
ServeStats::countReload(bool ok)
{
    (ok ? reloads_ : reloadFailures_).increment();
}

StatsSnapshot
ServeStats::snapshot() const
{
    StatsSnapshot s;
    s.connections = connections_.value() - base_.connections;
    s.requests = requests_.value() - base_.requests;
    s.predictRequests = predictRequests_.value() - base_.predictRequests;
    s.rowsPredicted = rowsPredicted_.value() - base_.rowsPredicted;
    s.errors = errors_.value() - base_.errors;
    s.connectionsActive = connectionsActive_.value();
    s.reloads = reloads_.value() - base_.reloads;
    s.reloadFailures = reloadFailures_.value() - base_.reloadFailures;
    s.slo = slo_.snapshot();
    return s;
}

} // namespace mtperf::serve
