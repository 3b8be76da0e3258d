#include "validate/report.h"

#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/sealed_json.h"

namespace mtperf::validate {

namespace {

/** Top-level member naming the report schema version. */
constexpr const char *kReportVersionKey = "mtperf_validate_report";
constexpr std::uint64_t kReportVersion = 1;

void
appendString(std::ostream &os, const std::string &text)
{
    os << '"';
    for (char c : text) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

std::size_t
WorkloadValidation::failed() const
{
    std::size_t n = 0;
    for (const CounterCheck &check : counters)
        n += check.pass ? 0 : 1;
    return n;
}

std::size_t
ValidateReport::checked() const
{
    std::size_t n = 0;
    for (const WorkloadValidation &w : workloads)
        n += w.counters.size();
    return n;
}

std::size_t
ValidateReport::failed() const
{
    std::size_t n = 0;
    for (const WorkloadValidation &w : workloads)
        n += w.failed();
    return n;
}

std::string
driftReportToJson(const ValidateReport &report)
{
    std::ostringstream os;
    os << "{\"" << kReportVersionKey << "\":" << kReportVersion
       << ",\"instructions\":" << report.instructions
       << ",\"seed\":" << report.seed << ",\"workloads\":[";
    bool first_workload = true;
    for (const WorkloadValidation &w : report.workloads) {
        if (!first_workload)
            os << ',';
        first_workload = false;
        os << "{\"workload\":";
        appendString(os, w.workload);
        os << ",\"family\":";
        appendString(os, w.family);
        os << ",\"failed\":" << w.failed() << ",\"counters\":[";
        bool first_counter = true;
        for (const CounterCheck &c : w.counters) {
            if (!first_counter)
                os << ',';
            first_counter = false;
            os << "{\"counter\":";
            appendString(os, c.counter);
            os << ",\"expected\":" << json::jsonNumberText(c.expected)
               << ",\"lo\":" << json::jsonNumberText(c.lo)
               << ",\"hi\":" << json::jsonNumberText(c.hi)
               << ",\"actual\":" << c.actual << ",\"relative_error\":"
               << json::jsonNumberText(c.relativeError)
               << ",\"pass\":" << (c.pass ? "true" : "false") << '}';
        }
        os << "]}";
    }
    os << "],\"checked\":" << report.checked()
       << ",\"failed\":" << report.failed();
    return sealJson(os.str());
}

void
writeDriftReportFile(const std::string &path,
                     const ValidateReport &report)
{
    const std::string json = driftReportToJson(report);
    try {
        MTPERF_FAULT_POINT("validate.report");
        // No trailing newline: the CRC seal covers every byte before
        // the suffix, and a bare document means no truncation of the
        // file can masquerade as a complete report.
        atomicWriteFile(path,
                        [&](std::ostream &out) { out << json; });
    } catch (const std::exception &e) {
        mtperf_fatal("failed to write drift report ", path, ": ",
                     e.what());
    }
}

namespace {

[[noreturn]] void
badReport(const std::string &source, const std::string &why)
{
    mtperf_fatal("drift report ", source, ": ", why);
}

const json::JsonValue &
member(const json::JsonValue &object, const char *key,
       const std::string &source)
{
    const json::JsonValue *value = object.find(key);
    if (value == nullptr)
        badReport(source, std::string("missing member '") + key + "'");
    return *value;
}

std::uint64_t
uintMember(const json::JsonValue &object, const char *key,
           const std::string &source)
{
    const json::JsonValue &value = member(object, key, source);
    if (!value.isNumber() || !value.isUnsignedIntegral())
        badReport(source, std::string("member '") + key +
                              "' must be an unsigned integer");
    return value.unsignedIntegral();
}

double
numberMember(const json::JsonValue &object, const char *key,
             const std::string &source)
{
    const json::JsonValue &value = member(object, key, source);
    if (!value.isNumber())
        badReport(source,
                  std::string("member '") + key + "' must be a number");
    return value.number();
}

std::string
stringMember(const json::JsonValue &object, const char *key,
             const std::string &source)
{
    const json::JsonValue &value = member(object, key, source);
    if (!value.isString())
        badReport(source,
                  std::string("member '") + key + "' must be a string");
    return value.string();
}

} // namespace

ValidateReport
parseDriftReport(std::string_view text, const std::string &source)
{
    json::JsonValue root;
    try {
        root = parseSealedJson(text, source);
    } catch (const FatalError &e) {
        badReport(source, e.what());
    }
    if (uintMember(root, kReportVersionKey, source) != kReportVersion)
        badReport(source, "unsupported report version");

    ValidateReport report;
    report.instructions = uintMember(root, "instructions", source);
    report.seed = uintMember(root, "seed", source);
    const json::JsonValue &workloads =
        member(root, "workloads", source);
    if (!workloads.isArray())
        badReport(source, "member 'workloads' must be an array");
    for (const json::JsonValue &w : workloads.array()) {
        if (!w.isObject())
            badReport(source, "workload entries must be objects");
        WorkloadValidation validation;
        validation.workload = stringMember(w, "workload", source);
        validation.family = stringMember(w, "family", source);
        const json::JsonValue &counters = member(w, "counters", source);
        if (!counters.isArray())
            badReport(source, "member 'counters' must be an array");
        for (const json::JsonValue &c : counters.array()) {
            if (!c.isObject())
                badReport(source, "counter entries must be objects");
            CounterCheck check;
            check.counter = stringMember(c, "counter", source);
            check.expected = numberMember(c, "expected", source);
            check.lo = numberMember(c, "lo", source);
            check.hi = numberMember(c, "hi", source);
            check.actual = uintMember(c, "actual", source);
            check.relativeError =
                numberMember(c, "relative_error", source);
            const json::JsonValue &pass = member(c, "pass", source);
            if (!pass.isBool())
                badReport(source, "member 'pass' must be a boolean");
            check.pass = pass.boolean();
            validation.counters.push_back(std::move(check));
        }
        if (uintMember(w, "failed", source) != validation.failed())
            badReport(source, "workload 'failed' count disagrees with "
                              "its counter entries");
        report.workloads.push_back(std::move(validation));
    }
    if (uintMember(root, "checked", source) != report.checked())
        badReport(source,
                  "'checked' disagrees with the counter entries");
    if (uintMember(root, "failed", source) != report.failed())
        badReport(source,
                  "'failed' disagrees with the counter entries");
    return report;
}

ValidateReport
readDriftReportFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mtperf_fatal("cannot open drift report ", path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        mtperf_fatal("failed to read drift report ", path);
    return parseDriftReport(text.str(), path);
}

} // namespace mtperf::validate
