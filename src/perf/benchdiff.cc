#include "perf/benchdiff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/sealed_json.h"
#include "common/strings.h"

namespace mtperf::perf {

namespace {

bool
endsWith(const std::string &text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** True for latency-percentile names: p50_us, p95_us, p999_us, ... */
bool
isLatencyPercentile(const std::string &name)
{
    std::size_t start = name.rfind('p');
    if (start == std::string::npos || !endsWith(name, "_us"))
        return false;
    if (start != 0 && name[start - 1] != '_')
        return false;
    const std::size_t digits_end = name.size() - 3; // strip "_us"
    if (start + 1 >= digits_end)
        return false;
    for (std::size_t i = start + 1; i < digits_end; ++i) {
        if (std::isdigit(static_cast<unsigned char>(name[i])) == 0)
            return false;
    }
    return true;
}

const char *
policyName(BenchPolicy policy)
{
    switch (policy) {
    case BenchPolicy::Informational:
        return "informational";
    case BenchPolicy::HigherBetter:
        return "higher_better";
    case BenchPolicy::LowerBetter:
        return "lower_better";
    case BenchPolicy::Exact:
        return "exact";
    case BenchPolicy::Band:
        return "band";
    }
    return "?";
}

double
defaultTolerance(BenchPolicy policy)
{
    switch (policy) {
    case BenchPolicy::HigherBetter:
        return 0.30;
    case BenchPolicy::LowerBetter:
        return 0.50;
    default:
        return 0.0;
    }
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mtperf_fatal("cannot open bench snapshot ", path);
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad())
        mtperf_fatal("error reading bench snapshot ", path);
    return content.str();
}

/** One decoded snapshot value (number or string). */
struct BenchValue
{
    bool isString = false;
    double number = 0.0;
    std::string text;
};

std::map<std::string, BenchValue>
decodeSnapshot(const std::string &text, const std::string &source)
{
    const json::JsonValue doc = json::parseJson(text, source);
    std::map<std::string, BenchValue> values;
    for (const auto &[name, value] : doc.members()) {
        BenchValue decoded;
        if (value.isNumber()) {
            decoded.number = value.number();
        } else if (value.isString()) {
            decoded.isString = true;
            decoded.text = value.string();
        } else {
            mtperf_fatal(source, ": metric '", name,
                         "' is neither a number nor a string; bench "
                         "snapshots are flat objects");
        }
        if (!values.emplace(name, std::move(decoded)).second)
            mtperf_fatal(source, ": duplicate metric '", name, "'");
    }
    if (values.empty())
        mtperf_fatal(source, ": no metrics in snapshot");
    return values;
}

void
gateNumbers(BenchMetricDiff &m)
{
    const double old_value = m.oldValue;
    const double new_value = m.newValue;
    m.change = old_value != 0.0
                   ? (new_value - old_value) / std::fabs(old_value)
                   : 0.0;
    switch (m.policy) {
    case BenchPolicy::Informational:
        m.pass = true;
        break;
    case BenchPolicy::HigherBetter:
        m.pass = new_value >= old_value * (1.0 - m.tolerance);
        break;
    case BenchPolicy::LowerBetter:
        m.pass = new_value <= old_value * (1.0 + m.tolerance);
        break;
    case BenchPolicy::Exact:
        m.pass = new_value == old_value;
        break;
    case BenchPolicy::Band:
        m.pass = old_value != 0.0
                     ? std::fabs(m.change) <= m.tolerance
                     : new_value == 0.0;
        break;
    }
}

} // namespace

BenchPolicy
benchPolicyFor(const std::string &name)
{
    if (name == "git_sha" || name == "retries" ||
        endsWith(name, "wall_seconds"))
        return BenchPolicy::Informational;
    if (endsWith(name, "_per_sec") || endsWith(name, "hit_rate") ||
        name.find("speedup") != std::string::npos)
        return BenchPolicy::HigherBetter;
    if (isLatencyPercentile(name))
        return BenchPolicy::LowerBetter;
    return BenchPolicy::Exact;
}

std::size_t
BenchDiffReport::regressions() const
{
    std::size_t n = 0;
    for (const auto &m : metrics)
        n += m.pass ? 0 : 1;
    return n;
}

BenchDiffReport
diffBenchDocs(const std::string &old_text,
              const std::string &old_source,
              const std::string &new_text,
              const std::string &new_source,
              const std::map<std::string, double> &overrides)
{
    const auto old_values = decodeSnapshot(old_text, old_source);
    const auto new_values = decodeSnapshot(new_text, new_source);

    for (const auto &[name, tolerance] : overrides) {
        if (old_values.count(name) == 0 && new_values.count(name) == 0)
            mtperf_fatal("--tolerance names metric '", name,
                         "' which appears in neither snapshot");
        if (tolerance < 0.0)
            mtperf_fatal("--tolerance for '", name,
                         "' must be >= 0, got ", tolerance);
    }

    BenchDiffReport report;
    report.oldSource = old_source;
    report.newSource = new_source;

    std::map<std::string, bool> names; // name -> (unused), sorted
    for (const auto &[name, value] : old_values)
        names.emplace(name, true);
    for (const auto &[name, value] : new_values)
        names.emplace(name, true);

    for (const auto &[name, unused] : names) {
        BenchMetricDiff m;
        m.name = name;
        m.policy = benchPolicyFor(name);
        m.tolerance = defaultTolerance(m.policy);
        if (const auto it = overrides.find(name);
            it != overrides.end()) {
            m.tolerance = it->second;
            if (m.policy != BenchPolicy::HigherBetter &&
                m.policy != BenchPolicy::LowerBetter)
                m.policy = BenchPolicy::Band;
        }

        const auto old_it = old_values.find(name);
        const auto new_it = new_values.find(name);
        m.inOld = old_it != old_values.end();
        m.inNew = new_it != new_values.end();

        if (!m.inNew) {
            // A gated metric that vanished is a regression: the bench
            // stopped measuring something the baseline gated on.
            m.pass = m.policy == BenchPolicy::Informational;
            m.note = "missing in NEW";
            m.isString = old_it->second.isString;
            m.oldValue = old_it->second.number;
            m.oldText = old_it->second.text;
        } else if (!m.inOld) {
            m.pass = true;
            m.note = "added in NEW";
            m.isString = new_it->second.isString;
            m.newValue = new_it->second.number;
            m.newText = new_it->second.text;
        } else if (old_it->second.isString !=
                   new_it->second.isString) {
            m.pass = m.policy == BenchPolicy::Informational;
            m.note = "type changed";
            m.isString = true;
            m.oldText = old_it->second.isString
                            ? old_it->second.text
                            : json::jsonNumberText(old_it->second.number);
            m.newText = new_it->second.isString
                            ? new_it->second.text
                            : json::jsonNumberText(new_it->second.number);
        } else if (old_it->second.isString) {
            m.isString = true;
            m.oldText = old_it->second.text;
            m.newText = new_it->second.text;
            m.pass = m.policy == BenchPolicy::Informational ||
                     m.oldText == m.newText;
        } else {
            m.oldValue = old_it->second.number;
            m.newValue = new_it->second.number;
            gateNumbers(m);
        }
        report.metrics.push_back(std::move(m));
    }
    return report;
}

BenchDiffReport
diffBenchFiles(const std::string &old_path,
               const std::string &new_path,
               const std::map<std::string, double> &overrides)
{
    return diffBenchDocs(readFileText(old_path), old_path,
                         readFileText(new_path), new_path, overrides);
}

std::string
formatBenchDiff(const BenchDiffReport &report)
{
    // Regressions first (largest relative change on top), then the
    // rest in name order — the verdict line a human needs leads.
    std::vector<const BenchMetricDiff *> ordered;
    ordered.reserve(report.metrics.size());
    for (const auto &m : report.metrics)
        ordered.push_back(&m);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const BenchMetricDiff *a,
                        const BenchMetricDiff *b) {
                         if (a->pass != b->pass)
                             return !a->pass;
                         return std::fabs(a->change) >
                                std::fabs(b->change);
                     });

    std::ostringstream os;
    os << "benchdiff " << report.oldSource << " -> "
       << report.newSource << "\n";
    os << padRight("metric", 34) << padLeft("old", 14)
       << padLeft("new", 14) << padLeft("change", 9)
       << "  policy\n";
    for (const BenchMetricDiff *m : ordered) {
        std::string old_text = "-";
        std::string new_text = "-";
        std::string change;
        if (m->isString) {
            if (m->inOld)
                old_text = m->oldText;
            if (m->inNew)
                new_text = m->newText;
        } else {
            if (m->inOld)
                old_text = formatDouble(m->oldValue, 4);
            if (m->inNew)
                new_text = formatDouble(m->newValue, 4);
            if (m->inOld && m->inNew)
                change = formatDouble(100.0 * m->change, 1) + "%";
        }
        os << padRight(m->name, 34) << padLeft(old_text, 14)
           << padLeft(new_text, 14) << padLeft(change, 9) << "  "
           << policyName(m->policy);
        if (m->policy == BenchPolicy::HigherBetter ||
            m->policy == BenchPolicy::LowerBetter ||
            m->policy == BenchPolicy::Band)
            os << "(" << formatDouble(m->tolerance, 2) << ")";
        if (!m->note.empty())
            os << " [" << m->note << "]";
        if (!m->pass)
            os << "  REGRESSION";
        os << "\n";
    }
    os << (report.pass()
               ? "PASS: no regressions"
               : "FAIL: " + std::to_string(report.regressions()) +
                     " regression" +
                     (report.regressions() == 1 ? "" : "s"))
       << " across " << report.metrics.size() << " metrics\n";
    return os.str();
}

std::string
benchDiffToJson(const BenchDiffReport &report)
{
    std::ostringstream os;
    os << "{\"mtperf_benchdiff\":1,\"old\":\""
       << jsonEscape(report.oldSource) << "\",\"new\":\""
       << jsonEscape(report.newSource) << "\",\"metrics\":[";
    bool first = true;
    for (const auto &m : report.metrics) {
        os << (first ? "" : ",") << "{\"name\":\""
           << jsonEscape(m.name) << "\",\"policy\":\""
           << policyName(m.policy) << "\",\"tolerance\":"
           << json::jsonNumberText(m.tolerance);
        if (m.inOld)
            os << ",\"old\":"
               << (m.isString ? "\"" + jsonEscape(m.oldText) + "\""
                              : json::jsonNumberText(m.oldValue));
        if (m.inNew)
            os << ",\"new\":"
               << (m.isString ? "\"" + jsonEscape(m.newText) + "\""
                              : json::jsonNumberText(m.newValue));
        if (m.inOld && m.inNew && !m.isString)
            os << ",\"change\":" << json::jsonNumberText(m.change);
        if (!m.note.empty())
            os << ",\"note\":\"" << jsonEscape(m.note) << "\"";
        os << ",\"pass\":" << (m.pass ? "true" : "false") << "}";
        first = false;
    }
    os << "],\"regressions\":" << report.regressions()
       << ",\"pass\":" << (report.pass() ? "true" : "false");
    return sealJson(os.str());
}

void
writeBenchDiffFile(const std::string &path,
                   const BenchDiffReport &report)
{
    MTPERF_FAULT_POINT("obs.flush");
    const std::string body = benchDiffToJson(report);
    atomicWriteFile(path,
                    [&body](std::ostream &os) { os << body; });
}

} // namespace mtperf::perf
