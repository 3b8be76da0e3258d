#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/sealed_json.h"
#include "common/strings.h"
#include "obs/thread_info.h"

namespace mtperf::obs {

namespace {

constexpr const char *kVersionKey = "mtperf_timeseries";
constexpr std::uint64_t kVersion = 1;

void
appendString(std::ostream &os, const std::string &text)
{
    os << '"' << jsonEscape(text) << '"';
}

void
appendNumber(std::ostream &os, double value)
{
    os << (std::isfinite(value) ? json::jsonNumberText(value) : "0");
}

} // namespace

TimeseriesSpec
parseTimeseriesSpec(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        mtperf_fatal("bad --timeseries-out '", spec,
                     "': expected INTERVAL:PATH (e.g. 500ms:ts.json)");
    std::string interval = spec.substr(0, colon);
    std::uint64_t scale = 1;
    if (interval.size() > 2 &&
        interval.compare(interval.size() - 2, 2, "ms") == 0) {
        interval.resize(interval.size() - 2);
    } else if (interval.size() > 1 && interval.back() == 's') {
        interval.pop_back();
        scale = 1000;
    }
    TimeseriesSpec parsed;
    parsed.intervalMs =
        parseSize(interval, "--timeseries-out interval") * scale;
    if (parsed.intervalMs == 0)
        mtperf_fatal("bad --timeseries-out '", spec,
                     "': interval must be positive");
    parsed.path = spec.substr(colon + 1);
    return parsed;
}

TimeseriesSampler::TimeseriesSampler(Options options)
    : options_(options), epoch_(std::chrono::steady_clock::now()),
      ring_(options.capacity)
{
    mtperf_assert(options_.intervalMs > 0 && options_.capacity > 0,
                  "bad timeseries sampler options");
}

TimeseriesSampler::~TimeseriesSampler()
{
    stop();
}

void
TimeseriesSampler::sampleOnce()
{
    Sample sample;
    sample.tMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - epoch_)
                     .count();
    sample.metrics = snapshotRegistry();

    static Counter &samples = counter("obs.timeseries.samples");
    static Counter &dropped = counter("obs.timeseries.dropped");
    samples.increment();

    std::lock_guard<std::mutex> lock(mutex_);
    if (retained_ == ring_.size())
        dropped.increment();
    else
        ++retained_;
    ring_[head_] = std::move(sample);
    head_ = (head_ + 1) % ring_.size();
    ++taken_;
}

void
TimeseriesSampler::run()
{
    setCurrentThreadName("mtperf-timeseries");
    sampleOnce(); // t=0 baseline
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        wake_.wait_for(lock,
                       std::chrono::milliseconds(options_.intervalMs));
        if (stopping_)
            break;
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

void
TimeseriesSampler::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (running_)
            return;
        running_ = true;
        stopping_ = false;
    }
    thread_ = std::thread([this] { run(); });
}

void
TimeseriesSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        stopping_ = true;
    }
    wake_.notify_all();
    thread_.join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        running_ = false;
    }
    sampleOnce(); // end state, so short runs never serialize empty
}

std::uint64_t
TimeseriesSampler::taken() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return taken_;
}

std::size_t
TimeseriesSampler::retained() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retained_;
}

std::string
TimeseriesSampler::toJson() const
{
    // Copy the ring (oldest first) under the lock, serialize outside.
    std::vector<Sample> samples;
    std::uint64_t taken = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples.reserve(retained_);
        const std::size_t oldest =
            (head_ + ring_.size() - retained_) % ring_.size();
        for (std::size_t i = 0; i < retained_; ++i)
            samples.push_back(ring_[(oldest + i) % ring_.size()]);
        taken = taken_;
    }

    std::ostringstream os;
    os << "{\"" << kVersionKey << "\":" << kVersion
       << ",\"interval_ms\":" << options_.intervalMs
       << ",\"capacity\":" << options_.capacity << ",\"taken\":" << taken
       << ",\"dropped\":" << (taken - samples.size()) << ",\"samples\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        if (i != 0)
            os << ',';
        os << "{\"t_ms\":" << s.tMs << ",\"counters\":{";
        bool first = true;
        for (const auto &[name, value] : s.metrics.counters) {
            if (!first)
                os << ',';
            first = false;
            appendString(os, name);
            os << ':' << value;
        }
        os << "},\"rates\":{";
        first = true;
        if (i != 0) {
            // Per-second delta vs the previous retained sample. The
            // previous sample's counters are a sorted subset walk:
            // registry maps only grow, so match by name.
            const Sample &prev = samples[i - 1];
            const double dtSec =
                std::max<std::int64_t>(s.tMs - prev.tMs, 1) / 1000.0;
            std::size_t p = 0;
            for (const auto &[name, value] : s.metrics.counters) {
                while (p < prev.metrics.counters.size() &&
                       prev.metrics.counters[p].first < name)
                    ++p;
                const std::uint64_t before =
                    (p < prev.metrics.counters.size() &&
                     prev.metrics.counters[p].first == name)
                        ? prev.metrics.counters[p].second
                        : 0;
                const std::uint64_t delta =
                    value >= before ? value - before : 0;
                if (!first)
                    os << ',';
                first = false;
                appendString(os, name);
                os << ':';
                appendNumber(os, static_cast<double>(delta) / dtSec);
            }
        }
        os << "},\"gauges\":{";
        first = true;
        for (const auto &[name, value] : s.metrics.gauges) {
            if (!first)
                os << ',';
            first = false;
            appendString(os, name);
            os << ":{\"value\":" << value.value
               << ",\"max\":" << value.max << '}';
        }
        os << "},\"histograms\":{";
        first = true;
        for (const auto &[name, snap] : s.metrics.histograms) {
            if (!first)
                os << ',';
            first = false;
            appendString(os, name);
            os << ":{\"count\":" << snap.count() << ",\"sum\":";
            appendNumber(os, snap.sum());
            os << ",\"p50\":";
            appendNumber(os, snap.percentile(0.50));
            os << ",\"p95\":";
            appendNumber(os, snap.percentile(0.95));
            os << ",\"p99\":";
            appendNumber(os, snap.percentile(0.99));
            os << '}';
        }
        os << "}}";
    }
    os << "]";
    return sealJson(os.str());
}

void
TimeseriesSampler::writeFile(const std::string &path) const
{
    const std::string json = toJson();
    MTPERF_FAULT_POINT("obs.flush");
    // No trailing newline: the seal covers every byte before the
    // suffix (same contract as the validate drift report).
    atomicWriteFile(path, [&](std::ostream &out) { out << json; });
}

namespace {

[[noreturn]] void
badTimeseries(const std::string &source, const std::string &why)
{
    mtperf_fatal("timeseries ", source, ": ", why);
}

const json::JsonValue &
member(const json::JsonValue &object, const char *key,
       const std::string &source)
{
    const json::JsonValue *value = object.find(key);
    if (value == nullptr)
        badTimeseries(source,
                      std::string("missing member '") + key + "'");
    return *value;
}

std::uint64_t
uintMember(const json::JsonValue &object, const char *key,
           const std::string &source)
{
    const json::JsonValue &value = member(object, key, source);
    if (!value.isNumber() || !value.isUnsignedIntegral())
        badTimeseries(source, std::string("member '") + key +
                                  "' must be an unsigned integer");
    return value.unsignedIntegral();
}

} // namespace

ParsedTimeseries
parseTimeseries(std::string_view text, const std::string &source)
{
    json::JsonValue root;
    try {
        root = parseSealedJson(text, source);
    } catch (const FatalError &e) {
        badTimeseries(source, e.what());
    }
    if (uintMember(root, kVersionKey, source) != kVersion)
        badTimeseries(source, "unsupported timeseries version");

    ParsedTimeseries parsed;
    parsed.intervalMs = uintMember(root, "interval_ms", source);
    parsed.capacity = uintMember(root, "capacity", source);
    parsed.taken = uintMember(root, "taken", source);
    parsed.dropped = uintMember(root, "dropped", source);

    const json::JsonValue &samples = member(root, "samples", source);
    if (!samples.isArray())
        badTimeseries(source, "'samples' must be an array");
    if (samples.array().size() > parsed.capacity ||
        samples.array().size() + parsed.dropped != parsed.taken)
        badTimeseries(source, "sample accounting does not add up");

    std::int64_t lastT = -1;
    for (const json::JsonValue &entry : samples.array()) {
        if (!entry.isObject())
            badTimeseries(source, "sample must be an object");
        ParsedTimeseriesSample sample;
        const json::JsonValue &t = member(entry, "t_ms", source);
        if (!t.isNumber())
            badTimeseries(source, "'t_ms' must be a number");
        sample.tMs = static_cast<std::int64_t>(t.number());
        if (sample.tMs < lastT)
            badTimeseries(source, "sample timestamps must be monotone");
        lastT = sample.tMs;

        const json::JsonValue &counters =
            member(entry, "counters", source);
        if (!counters.isObject())
            badTimeseries(source, "'counters' must be an object");
        for (const auto &[name, value] : counters.members()) {
            if (!value.isNumber() || !value.isUnsignedIntegral())
                badTimeseries(source, "counter '" + name +
                                          "' must be an unsigned integer");
            sample.counters[name] = value.unsignedIntegral();
        }
        const json::JsonValue &rates = member(entry, "rates", source);
        if (!rates.isObject())
            badTimeseries(source, "'rates' must be an object");
        for (const auto &[name, value] : rates.members()) {
            if (!value.isNumber())
                badTimeseries(source,
                              "rate '" + name + "' must be a number");
            sample.rates[name] = value.number();
        }
        parsed.samples.push_back(std::move(sample));
    }
    return parsed;
}

} // namespace mtperf::obs
