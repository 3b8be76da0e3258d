#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/prometheus.h"

namespace mtperf::obs {

// ---------------------------------------------------------------------------
// Histogram

HistogramSnapshot::HistogramSnapshot(HistogramConfig config,
                                     std::vector<std::uint64_t> buckets,
                                     double sum)
    : config_(config), buckets_(std::move(buckets)), sum_(sum)
{
    for (std::uint64_t b : buckets_)
        count_ += b;
}

double
HistogramSnapshot::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const std::uint64_t here = buckets_[b];
        if (here == 0)
            continue;
        if (static_cast<double>(seen + here) >= target) {
            // Interpolate within the bucket: the target rank falls
            // `within` of the way through this bucket's population,
            // spread linearly over [lower bound, upper bound].
            const double lower =
                b == 0 ? 0.0
                       : config_.firstBound *
                             std::pow(config_.growth,
                                      static_cast<double>(b) - 1.0);
            const double upper =
                config_.firstBound *
                std::pow(config_.growth, static_cast<double>(b));
            const double within =
                (target - static_cast<double>(seen)) /
                static_cast<double>(here);
            return lower + within * (upper - lower);
        }
        seen += here;
    }
    return config_.firstBound *
           std::pow(config_.growth,
                    static_cast<double>(buckets_.size()) - 1.0);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (buckets_.empty()) {
        *this = other;
        return;
    }
    mtperf_assert(config_ == other.config_,
                  "merging histograms with different bucket layouts");
    for (std::size_t b = 0; b < buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
}

void
HistogramSnapshot::subtract(const HistogramSnapshot &baseline)
{
    if (baseline.buckets_.empty())
        return;
    mtperf_assert(config_ == baseline.config_,
                  "subtracting histograms with different bucket layouts");
    count_ = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        // Clamp instead of asserting: a record() racing the two
        // bucket copies can leave the "earlier" snapshot ahead in
        // exactly the bucket it was incrementing.
        buckets_[b] = buckets_[b] >= baseline.buckets_[b]
                          ? buckets_[b] - baseline.buckets_[b]
                          : 0;
        count_ += buckets_[b];
    }
    sum_ = std::max(sum_ - baseline.sum_, 0.0);
}

Histogram::Histogram(HistogramConfig config)
    : config_(config), buckets_(config.buckets)
{
    mtperf_assert(config_.buckets > 0 && config_.growth > 1.0 &&
                      config_.firstBound > 0.0,
                  "bad histogram config");
}

std::size_t
Histogram::bucketFor(double value) const
{
    if (!(value > config_.firstBound))
        return 0;
    const double steps = std::log(value / config_.firstBound) /
                         std::log(config_.growth);
    const auto bucket = static_cast<std::size_t>(std::ceil(steps));
    return bucket >= config_.buckets ? config_.buckets - 1 : bucket;
}

double
Histogram::boundOf(std::size_t bucket) const
{
    return config_.firstBound *
           std::pow(config_.growth, static_cast<double>(bucket));
}

void
Histogram::record(double value)
{
    buckets_[bucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    // CAS-loop add of the double sum; contention is rare (the loop
    // retries only when two records race on the same histogram).
    std::uint64_t bits = sumBits_.load(std::memory_order_relaxed);
    while (true) {
        const double updated =
            std::bit_cast<double>(bits) + std::max(value, 0.0);
        if (sumBits_.compare_exchange_weak(
                bits, std::bit_cast<std::uint64_t>(updated),
                std::memory_order_relaxed)) {
            break;
        }
    }
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (const auto &bucket : buckets_)
        total += bucket.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::percentile(double p) const
{
    return snapshot().percentile(p);
}

HistogramSnapshot
Histogram::snapshot() const
{
    std::vector<std::uint64_t> copied(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b)
        copied[b] = buckets_[b].load(std::memory_order_relaxed);
    return HistogramSnapshot(
        config_, std::move(copied),
        std::bit_cast<double>(sumBits_.load(std::memory_order_relaxed)));
}

// ---------------------------------------------------------------------------
// Registry

namespace {

/**
 * Metric storage. unique_ptr-per-metric keeps references stable
 * forever (the maps only grow), which is what lets call sites cache
 * `static Counter &` across the process lifetime.
 */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, Invariant> invariants;
};

Registry &
registry()
{
    static Registry *instance = new Registry; // never destroyed
    return *instance;
}

void
appendJsonNumber(std::ostream &os, double value)
{
    if (!std::isfinite(value)) {
        os << "0";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(12);
    tmp << value;
    os << tmp.str();
}

} // namespace

Counter &
counter(const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name, HistogramConfig config)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(config);
    return *slot;
}

void
registerInvariant(const std::string &name,
                  std::function<std::string()> check)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.invariants[name] = Invariant{name, std::move(check)};
}

std::vector<InvariantViolation>
validateInvariants()
{
    // Copy the checks out so user callbacks run without the registry
    // lock (they will re-enter counter()/gauge()).
    std::vector<Invariant> checks;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        checks.reserve(reg.invariants.size());
        for (const auto &[name, invariant] : reg.invariants)
            checks.push_back(invariant);
    }
    std::vector<InvariantViolation> violations;
    for (const auto &invariant : checks) {
        const std::string message = invariant.check();
        if (message.empty())
            continue;
        warn("metrics invariant '", invariant.name,
             "' violated: ", message);
        violations.push_back({invariant.name, message});
    }
    return violations;
}

MetricsSnapshot
snapshotRegistry()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    MetricsSnapshot snap;
    snap.counters.reserve(reg.counters.size());
    for (const auto &[name, metric] : reg.counters)
        snap.counters.emplace_back(name, metric->value());
    snap.gauges.reserve(reg.gauges.size());
    for (const auto &[name, metric] : reg.gauges)
        snap.gauges.emplace_back(
            name,
            MetricsSnapshot::GaugeValue{metric->value(),
                                        metric->maxValue()});
    snap.histograms.reserve(reg.histograms.size());
    for (const auto &[name, metric] : reg.histograms)
        snap.histograms.emplace_back(name, metric->snapshot());
    return snap;
}

std::string
metricsToJson()
{
    const std::vector<InvariantViolation> violations =
        validateInvariants();

    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, metric] : reg.counters) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << '"';
        os << ':' << metric->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, metric] : reg.gauges) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << '"';
        os << ":{\"value\":" << metric->value()
           << ",\"max\":" << metric->maxValue() << '}';
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, metric] : reg.histograms) {
        if (!first)
            os << ',';
        first = false;
        const HistogramSnapshot snap = metric->snapshot();
        os << '"' << jsonEscape(name) << '"';
        os << ":{\"count\":" << snap.count() << ",\"mean\":";
        appendJsonNumber(os, snap.mean());
        os << ",\"p50\":";
        appendJsonNumber(os, snap.percentile(0.50));
        os << ",\"p95\":";
        appendJsonNumber(os, snap.percentile(0.95));
        os << ",\"p99\":";
        appendJsonNumber(os, snap.percentile(0.99));
        os << '}';
    }
    os << "},\"invariant_violations\":[";
    first = true;
    for (const auto &violation : violations) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << jsonEscape(violation.name)
           << "\",\"message\":\"" << jsonEscape(violation.message)
           << "\"}";
    }
    os << "]}";
    return os.str();
}

void
writeMetricsFile(const std::string &path, MetricsFormat format)
{
    // Both formats run invariant validation first: the JSON dump
    // embeds the violations, the Prometheus one warns via logging.
    const std::string body = format == MetricsFormat::Json
                                 ? metricsToJson()
                                 : (static_cast<void>(validateInvariants()),
                                    metricsToPrometheus());
    MTPERF_FAULT_POINT("obs.flush");
    atomicWriteFile(path, [&](std::ostream &out) {
        out << body;
        if (format == MetricsFormat::Json)
            out << "\n"; // exposition text is already \n-terminated
    });
}

} // namespace mtperf::obs
