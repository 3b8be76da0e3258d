#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_nextId{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_mutex

/** Open spans of this thread, innermost last. */
thread_local std::vector<std::uint64_t> t_open;

double
durationSeconds(const SpanRecord &span)
{
    return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

/** Seconds of [start, end) covered by the union of @p intervals. */
double
coveredSeconds(std::int64_t start, std::int64_t end,
               std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = start;
    for (auto [lo, hi] : intervals) {
        lo = std::max(lo, reach);
        hi = std::min(hi, end);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return static_cast<double>(covered) * 1e-9;
}

using ChildMap =
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>;

ChildMap
childIntervals(const std::vector<SpanRecord> &spans)
{
    ChildMap children;
    for (const SpanRecord &span : spans) {
        if (span.parent != 0)
            children[span.parent].emplace_back(span.startNs, span.endNs);
    }
    return children;
}

std::string
jsonEscaped(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void
Trace::enable(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

bool
Trace::on()
{
    return g_on.load(std::memory_order_relaxed);
}

std::uint64_t
Trace::newId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Trace::reserveIds(std::uint64_t n)
{
    return g_nextId.fetch_add(n, std::memory_order_relaxed);
}

void
Trace::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(std::move(span));
}

std::vector<SpanRecord>
Trace::all()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

void
Trace::write(const std::string &path)
{
    const std::vector<SpanRecord> spans = all();
    std::int64_t origin = 0;
    if (!spans.empty()) {
        origin = std::min_element(spans.begin(), spans.end(),
                                  [](const auto &a, const auto &b) {
                                      return a.startNs < b.startNs;
                                  })
                     ->startNs;
    }
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(span.startNs - origin) * 1e-3
            << ",\"dur\":"
            << static_cast<double>(span.endNs - span.startNs) * 1e-3
            << ",\"args\":{\"id\":" << span.id
            << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << ",\"detail\":\""
            << jsonEscaped(span.detail) << "\"}}";
    }
    out << "\n]}\n";
}

Span::Span(const char *name, std::string detail, std::uint64_t parent,
           std::uint64_t request)
{
    record_.name = name;
    if (Trace::on() && sampledRequest(request)) {
        record_.detail = std::move(detail);
        record_.id = Trace::newId();
        record_.parent = parent != kInheritParent
                             ? parent
                             : (t_open.empty() ? 0 : t_open.back());
        record_.request = request;
        t_open.push_back(record_.id);
        pushed_ = true;
    }
    record_.startNs = nowNs();
}

Span::~Span()
{
    end();
}

double
Span::end()
{
    if (!ended_) {
        record_.endNs = nowNs();
        ended_ = true;
        if (pushed_) {
            // Spans of one thread close innermost first.
            if (!t_open.empty() && t_open.back() == record_.id)
                t_open.pop_back();
            Trace::record(record_);
        }
    }
    return seconds();
}

double
Span::seconds() const
{
    const std::int64_t end = ended_ ? record_.endNs : nowNs();
    return static_cast<double>(end - record_.startNs) * 1e-9;
}

std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans)
{
    const ChildMap children = childIntervals(spans);
    std::map<std::string, double> self;
    for (const SpanRecord &span : spans) {
        double seconds = durationSeconds(span);
        const auto it = children.find(span.id);
        if (it != children.end())
            seconds -= coveredSeconds(span.startNs, span.endNs, it->second);
        const std::string name = span.name;
        self[name.substr(0, name.find('.'))] += seconds;
    }
    return self;
}

double
childCoverage(const std::vector<SpanRecord> &spans,
              const std::string &parent_name)
{
    const ChildMap children = childIntervals(spans);
    double total = 0.0;
    double covered = 0.0;
    for (const SpanRecord &span : spans) {
        if (parent_name != span.name)
            continue;
        total += durationSeconds(span);
        const auto it = children.find(span.id);
        if (it != children.end())
            covered += coveredSeconds(span.startNs, span.endNs, it->second);
    }
    return total > 0.0 ? covered / total : 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p * static_cast<double>(values.size()));
    const std::size_t index = std::min(
        values.size() - 1,
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[index];
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
