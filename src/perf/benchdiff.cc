#include "perf/benchdiff.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/sealed_json.h"
#include "common/strings.h"
#include "math/stats.h"

namespace mtperf::perf {

namespace {

using json::JsonValue;

/** Member @p key of @p object; FatalError unless it has @p type. */
const JsonValue &
member(const JsonValue &object, const std::string &key,
       JsonValue::Type type, const std::string &where)
{
    const JsonValue *value =
        object.isObject() ? object.find(key) : nullptr;
    if (value == nullptr || value->type() != type)
        mtperf_fatal(where, ": \"", key, "\" must be a ",
                     JsonValue::typeName(type));
    return *value;
}

/** The array @p key of @p doc, read as metric declarations. */
void
declare(const JsonValue &doc, const std::string &key, bool end_to_end,
        const std::string &source, BenchDeclarations &declared)
{
    const std::vector<JsonValue> &entries =
        member(doc, key, JsonValue::Type::Array, source).array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        DeclaredMetric metric;
        const std::string where =
            source + ": " + key + "[" + std::to_string(i) + "]";
        metric.name =
            member(entries[i], "name", JsonValue::Type::String, where)
                .string();
        const std::string &better =
            member(entries[i], "better", JsonValue::Type::String, where)
                .string();
        if (better != "higher" && better != "lower")
            mtperf_fatal(where, ": \"better\" must be \"higher\" or "
                                "\"lower\", got \"",
                         better, "\"");
        metric.higherBetter = better == "higher";
        metric.endToEnd = end_to_end;
        if (end_to_end)
            metric.bound = member(entries[i], "bound",
                                  JsonValue::Type::Number, where)
                               .number();
        declared.push_back(std::move(metric));
    }
}

/** A predicate matching the declaration of @p name. */
auto
named(const std::string &name)
{
    return [&name](const DeclaredMetric &m) { return m.name == name; };
}

/** One perfbench run: a header line and its result line. */
struct BenchRun
{
    std::size_t line = 0; //!< 1-based line of the header
    std::string workload;
    std::uint64_t seed = 0;
    int trace = 0;
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values;
};

/** Parse `perfbench: workload W, seed N, trace T` into @p run. */
bool
parseHeader(const std::string &line, BenchRun &run)
{
    // Digits are taken as text: scanf's numeric conversions have no
    // defined behaviour on overflow.
    char workload[64] = {};
    char seed[21] = {};
    char trace[2] = {};
    if (std::sscanf(line.c_str(),
                    "perfbench: workload %63[^,], seed %20[0-9], "
                    "trace %1[01]",
                    workload, seed, trace) != 3)
        return false;
    const std::string_view digits(seed);
    const auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), run.seed);
    run.workload = workload;
    run.trace = trace[0] - '0';
    // Printed back it must be the same line: nothing around the
    // fields and no leading zeros.
    return ec == std::errc() &&
           line == "perfbench: workload " + run.workload + ", seed " +
                       std::to_string(run.seed) + ", trace " + trace;
}

std::uint64_t
countMember(const JsonValue &doc, const std::string &key,
            const std::string &where)
{
    const JsonValue &value =
        member(doc, key, JsonValue::Type::Number, where);
    if (!value.isUnsignedIntegral())
        mtperf_fatal(where, ": \"", key, "\" must be a count");
    return value.unsignedIntegral();
}

/** Read the result line @p line of @p run (declared metrics only). */
void
parseResult(const std::string &line, const std::string &where,
            const BenchDeclarations &declared, BenchRun &run)
{
    const JsonValue doc = json::parseJson(line, where);
    run.correct =
        member(doc, "correct", JsonValue::Type::Bool, where).boolean();
    run.attempted = countMember(doc, "attempted", where);
    run.failed = countMember(doc, "failed", where);
    const bool end_to_end = run.trace == 0;
    const char *list = end_to_end ? "end_to_end" : "per_layer";
    for (const auto &[name, entry] :
         member(doc, "metrics", JsonValue::Type::Object, where)
             .members()) {
        const auto it =
            std::find_if(declared.begin(), declared.end(), named(name));
        if (it == declared.end() || it->endToEnd != end_to_end)
            mtperf_fatal(where, ": metric '", name,
                         "' is not declared in BENCHMARK.json's ", list,
                         " list");
        run.values[name] = member(entry, "value",
                                  JsonValue::Type::Number,
                                  where + ": metric '" + name + "'")
                               .number();
    }
    for (const DeclaredMetric &metric : declared)
        if (metric.endToEnd == end_to_end &&
            run.values.count(metric.name) == 0)
            mtperf_fatal(where, ": declared ", list, " metric '",
                         metric.name, "' is missing",
                         run.correct ? "" : " (the run failed)");
}

/** Every run in @p text; all of one workload and trace mode. */
std::vector<BenchRun>
parseRuns(const std::string &text, const std::string &source,
          const BenchDeclarations &declared)
{
    std::vector<BenchRun> runs;
    std::istringstream in(text);
    std::string line;
    std::size_t number = 0; // odd lines are headers, even results
    while (std::getline(in, line)) {
        const std::string where = source + ":" + std::to_string(++number);
        if (number % 2 == 0) {
            parseResult(line, where, declared, runs.back());
            continue;
        }
        BenchRun run;
        if (!parseHeader(line, run))
            mtperf_fatal(where, ": expected a 'perfbench: workload W, "
                                "seed N, trace T' line");
        run.line = number;
        if (!runs.empty() && (run.workload != runs.front().workload ||
                              run.trace != runs.front().trace))
            mtperf_fatal(where, ": workload ", run.workload, ", trace ",
                         run.trace, " in a file of workload ",
                         runs.front().workload, ", trace ",
                         runs.front().trace);
        runs.push_back(std::move(run));
    }
    if (number % 2 == 1)
        mtperf_fatal(source, ":", number, ": run has no result line");
    if (runs.empty())
        mtperf_fatal(source, ": no perfbench runs");
    return runs;
}

BenchMetricDiff
judge(const DeclaredMetric &metric, const std::vector<double> &base,
      const std::vector<double> &head)
{
    BenchMetricDiff m;
    m.declared = metric;
    m.baseMedian = quantile(base, 0.5);
    m.headMedian = quantile(head, 0.5);
    m.baseSpread = quantile(base, 0.75) - quantile(base, 0.25);
    m.headSpread = quantile(head, 0.75) - quantile(head, 0.25);
    m.change = m.baseMedian != 0.0
                   ? (m.headMedian - m.baseMedian) /
                         std::fabs(m.baseMedian)
                   : 0.0;

    // Values times `sign` grow in the better direction.
    const double sign = metric.higherBetter ? 1.0 : -1.0;
    double worst_head = sign * head.front();
    double best_base = sign * base.front();
    for (std::size_t i = 0; i < base.size(); ++i) {
        m.wins += sign * head[i] > sign * base[i] ? 1 : 0;
        worst_head = std::min(worst_head, sign * head[i]);
        best_base = std::max(best_base, sign * base[i]);
    }

    const double gain = sign * (m.headMedian - m.baseMedian);
    if (metric.exact) {
        const auto same = [&](double v) { return v == base.front(); };
        m.verdict = std::all_of(base.begin(), base.end(), same) &&
                            std::all_of(head.begin(), head.end(), same)
                        ? BenchVerdict::Identical
                        : BenchVerdict::Differs;
    } else if (!metric.endToEnd) {
        m.verdict = BenchVerdict::Reported;
    } else if (-gain > metric.bound * std::fabs(m.baseMedian)) {
        m.verdict = BenchVerdict::Regressed;
    } else if ((m.baseSpread > metric.bound * std::fabs(m.baseMedian) ||
                m.headSpread > metric.bound * std::fabs(m.headMedian)) &&
               !(worst_head > best_base)) {
        m.verdict = BenchVerdict::Unresolved;
    } else if (base.size() >= 10 && m.wins * 10 >= base.size() * 9 &&
               gain > m.baseSpread) {
        m.verdict = BenchVerdict::Improved;
    } else {
        m.verdict = BenchVerdict::WithinBound;
    }
    return m;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mtperf_fatal("cannot open perfbench output ", path);
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad())
        mtperf_fatal("error reading perfbench output ", path);
    return content.str();
}

std::string
shortNumber(double value)
{
    char text[32];
    std::snprintf(text, sizeof text, "%.6g", value);
    return text;
}

/** A quartile spread as a share of its median. */
std::string
relativeSpread(double spread, double median)
{
    return median != 0.0
               ? formatDouble(100.0 * spread / std::fabs(median), 1) +
                     "%"
               : shortNumber(spread);
}

const char *const kVerdictNames[] = {
    "identical", "differs",      "regressed", "unresolved",
    "improved",  "within_bound", "reported",
};

} // namespace

BenchDeclarations
readBenchDeclarations(const std::string &benchmark_path,
                      const std::string &protocol_path)
{
    const JsonValue benchmark = json::parseJsonFile(benchmark_path);
    BenchDeclarations declared;
    declare(benchmark, "end_to_end", true, benchmark_path, declared);
    declare(benchmark, "per_layer", false, benchmark_path, declared);
    for (const DeclaredMetric &metric : declared)
        if (std::count_if(declared.begin(), declared.end(),
                          named(metric.name)) > 1)
            mtperf_fatal(benchmark_path, ": metric '", metric.name,
                         "' is declared twice");

    const JsonValue protocol = json::parseJsonFile(protocol_path);
    for (const JsonValue &name :
         member(protocol, "exact_metrics", JsonValue::Type::Array,
                protocol_path)
             .array()) {
        const auto it =
            name.isString() ? std::find_if(declared.begin(),
                                           declared.end(),
                                           named(name.string()))
                            : declared.end();
        if (it == declared.end())
            mtperf_fatal(protocol_path, ": exact_metrics holds an "
                                        "entry BENCHMARK.json does "
                                        "not declare");
        it->exact = true;
    }
    return declared;
}

std::size_t
BenchDiffReport::count(BenchVerdict verdict) const
{
    std::size_t n = 0;
    for (const BenchMetricDiff &m : metrics)
        n += m.verdict == verdict ? 1 : 0;
    return n;
}

bool
BenchDiffReport::failedShareGrew() const
{
    // failed / attempted per side, compared without dividing.
    return static_cast<double>(headFailed) *
               static_cast<double>(baseAttempted) >
           static_cast<double>(baseFailed) *
               static_cast<double>(headAttempted);
}

bool
BenchDiffReport::pass() const
{
    return count(BenchVerdict::Regressed) == 0 &&
           count(BenchVerdict::Differs) == 0 && headCorrect &&
           !failedShareGrew();
}

BenchDiffReport
diffBenchRuns(const std::string &base_text,
              const std::string &base_source,
              const std::string &head_text,
              const std::string &head_source,
              const BenchDeclarations &declared)
{
    const std::vector<BenchRun> base =
        parseRuns(base_text, base_source, declared);
    const std::vector<BenchRun> head =
        parseRuns(head_text, head_source, declared);
    if (base.size() != head.size()) {
        const bool base_longer = base.size() > head.size();
        const std::size_t unpaired = std::min(base.size(), head.size());
        mtperf_fatal(base_longer ? base_source : head_source, ":",
                     (base_longer ? base : head)[unpaired].line,
                     ": run ", unpaired + 1, " has no partner: ",
                     base_source, " has ", base.size(), " runs, ",
                     head_source, " has ", head.size());
    }
    BenchDiffReport report;
    report.baseSource = base_source;
    report.headSource = head_source;
    report.workload = base.front().workload;
    report.trace = base.front().trace;
    report.pairs = base.size();
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (base[i].workload != head[i].workload ||
            base[i].seed != head[i].seed ||
            base[i].trace != head[i].trace)
            mtperf_fatal(head_source, ":", head[i].line, ": run ", i + 1,
                         " (", head[i].workload, ", seed ",
                         head[i].seed, ", trace ", head[i].trace,
                         ") does not pair with ", base_source, ":",
                         base[i].line, " (", base[i].workload,
                         ", seed ", base[i].seed, ", trace ",
                         base[i].trace, ")");
        report.baseAttempted += base[i].attempted;
        report.baseFailed += base[i].failed;
        report.headAttempted += head[i].attempted;
        report.headFailed += head[i].failed;
        report.headCorrect = report.headCorrect && head[i].correct;
    }
    for (const DeclaredMetric &metric : declared) {
        if (metric.endToEnd != (report.trace == 0))
            continue;
        std::vector<double> base_values;
        std::vector<double> head_values;
        for (std::size_t i = 0; i < base.size(); ++i) {
            base_values.push_back(base[i].values.at(metric.name));
            head_values.push_back(head[i].values.at(metric.name));
        }
        report.metrics.push_back(
            judge(metric, base_values, head_values));
    }
    return report;
}

BenchDiffReport
diffBenchFiles(const std::string &base_path,
               const std::string &head_path,
               const BenchDeclarations &declared)
{
    return diffBenchRuns(readFileText(base_path), base_path,
                         readFileText(head_path), head_path, declared);
}

std::string
formatBenchDiff(const BenchDiffReport &report)
{
    std::vector<const BenchMetricDiff *> ordered;
    for (const BenchMetricDiff &m : report.metrics)
        ordered.push_back(&m);
    std::stable_partition(ordered.begin(), ordered.end(),
                          [](const BenchMetricDiff *m) {
                              return m->verdict == BenchVerdict::Regressed ||
                                     m->verdict == BenchVerdict::Differs;
                          });

    std::ostringstream os;
    os << "benchdiff " << report.baseSource << " -> "
       << report.headSource << ": " << report.workload << ", trace "
       << report.trace << ", pairs " << report.pairs << "\n";
    // Right-aligned, and never touching the column before.
    const auto cell = [](const std::string &text, std::size_t width) {
        return " " + padLeft(text, width);
    };
    os << padRight("metric", 27) << cell("base", 11) << cell("head", 11)
       << cell("change", 8) << cell("won", 6) << cell("base iqr", 9)
       << cell("head iqr", 9) << "  verdict\n";
    for (const BenchMetricDiff *m : ordered) {
        // Exact metrics in full, so that a change always shows.
        const auto value = [m](double v) {
            return m->declared.exact ? json::jsonNumberText(v)
                                     : shortNumber(v);
        };
        os << padRight(m->declared.name, 27)
           << cell(value(m->baseMedian), 11)
           << cell(value(m->headMedian), 11)
           << cell((m->change >= 0.0 ? "+" : "") +
                       formatDouble(100.0 * m->change, 1) + "%",
                   8)
           << cell(std::to_string(m->wins) + "/" +
                       std::to_string(report.pairs),
                   6)
           << cell(relativeSpread(m->baseSpread, m->baseMedian), 9)
           << cell(relativeSpread(m->headSpread, m->headMedian), 9)
           << "  " << kVerdictNames[static_cast<int>(m->verdict)];
        if (m->declared.endToEnd && !m->declared.exact)
            os << " (bound "
               << formatDouble(100.0 * m->declared.bound, 0) << "%)";
        os << "\n";
    }
    os << "failed operations: base " << report.baseFailed << "/"
       << report.baseAttempted << ", head " << report.headFailed << "/"
       << report.headAttempted
       << (report.failedShareGrew() ? " (head share higher)" : "")
       << "; head runs "
       << (report.headCorrect ? "all correct" : "NOT all correct")
       << "\n";
    os << (report.pass() ? "PASS: " : "FAIL: ")
       << report.count(BenchVerdict::Regressed) << " regressed, "
       << report.count(BenchVerdict::Differs) << " differ, "
       << report.count(BenchVerdict::Unresolved) << " unresolved, "
       << report.count(BenchVerdict::Improved) << " improved of "
       << report.metrics.size() << " metrics\n";
    return os.str();
}

std::string
benchDiffToJson(const BenchDiffReport &report)
{
    const auto number = [](double v) { return json::jsonNumberText(v); };
    std::ostringstream os;
    os << "{\"mtperf_benchdiff\":2,\"base\":\""
       << jsonEscape(report.baseSource) << "\",\"head\":\""
       << jsonEscape(report.headSource) << "\",\"workload\":\""
       << jsonEscape(report.workload) << "\",\"trace\":" << report.trace
       << ",\"pairs\":" << report.pairs
       << ",\"base_attempted\":" << report.baseAttempted
       << ",\"base_failed\":" << report.baseFailed
       << ",\"head_attempted\":" << report.headAttempted
       << ",\"head_failed\":" << report.headFailed
       << ",\"head_correct\":" << (report.headCorrect ? "true" : "false")
       << ",\"metrics\":[";
    for (const BenchMetricDiff &m : report.metrics) {
        os << (&m == report.metrics.data() ? "" : ",") << "{\"name\":\""
           << jsonEscape(m.declared.name) << "\",\"verdict\":\""
           << kVerdictNames[static_cast<int>(m.verdict)] << "\",\"better\":\""
           << (m.declared.higherBetter ? "higher" : "lower") << "\"";
        if (m.declared.endToEnd)
            os << ",\"bound\":" << number(m.declared.bound);
        os << ",\"base_median\":" << number(m.baseMedian)
           << ",\"head_median\":" << number(m.headMedian)
           << ",\"base_spread\":" << number(m.baseSpread)
           << ",\"head_spread\":" << number(m.headSpread)
           << ",\"change\":" << number(m.change)
           << ",\"wins\":" << m.wins << "}";
    }
    os << "],\"regressed\":" << report.count(BenchVerdict::Regressed)
       << ",\"differs\":" << report.count(BenchVerdict::Differs)
       << ",\"unresolved\":" << report.count(BenchVerdict::Unresolved)
       << ",\"improved\":" << report.count(BenchVerdict::Improved)
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
