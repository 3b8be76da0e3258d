#include "workload/spec_io.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>

#include "common/atomic_file.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace mtperf::workload {

namespace {

namespace fs = std::filesystem;
using json::JsonValue;

// ---------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------

/**
 * Emits the canonical document. Field order, indentation and number
 * formatting are all fixed so that parse -> emit reproduces a
 * canonical document byte-for-byte.
 */
class SpecWriter
{
  public:
    explicit SpecWriter(std::ostream &out) : out_(out) {}

    void
    write(const WorkloadSpec &spec)
    {
        out_ << "{\n";
        out_ << "  \"" << kWorkloadSpecVersionKey
             << "\": " << kWorkloadSpecVersion << ",\n";
        out_ << "  \"name\": \"" << jsonEscape(spec.name) << "\",\n";
        out_ << "  \"phases\": [\n";
        for (std::size_t i = 0; i < spec.phases.size(); ++i) {
            writePhase(spec.phases[i]);
            out_ << (i + 1 < spec.phases.size() ? ",\n" : "\n");
        }
        out_ << "  ]\n}";
    }

  private:
    void
    field(const char *indent, const char *key, double value,
          bool last = false)
    {
        out_ << indent << "\"" << key
             << "\": " << json::jsonNumberText(value)
             << (last ? "\n" : ",\n");
    }

    void
    field(const char *indent, const char *key, std::uint64_t value,
          bool last = false)
    {
        out_ << indent << "\"" << key << "\": " << value
             << (last ? "\n" : ",\n");
    }

    void
    writePhase(const PhaseSpec &phase)
    {
        const PhaseParams &p = phase.params;
        out_ << "    {\n";
        out_ << "      \"name\": \"" << jsonEscape(p.name) << "\",\n";
        out_ << "      \"sections\": "
             << static_cast<std::uint64_t>(phase.sections) << ",\n";

        out_ << "      \"mix\": {\n";
        field("        ", "load", p.loadFrac);
        field("        ", "store", p.storeFrac);
        field("        ", "branch", p.branchFrac);
        field("        ", "fp_add", p.fpAddFrac);
        field("        ", "fp_mul", p.fpMulFrac);
        field("        ", "fp_div", p.fpDivFrac);
        field("        ", "int_mul", p.intMulFrac, true);
        out_ << "      },\n";

        out_ << "      \"data\": {\n";
        field("        ", "working_set_bytes", p.workingSetBytes);
        field("        ", "hot_frac", p.hotFrac);
        field("        ", "hot_bytes", p.hotBytes);
        field("        ", "pointer_chase_frac", p.pointerChaseFrac);
        field("        ", "chase_page_local_frac",
              p.chasePageLocalFrac);
        field("        ", "stream_frac", p.streamFrac);
        field("        ", "stride_bytes", p.strideBytes);
        field("        ", "zipf_s", p.zipfS, true);
        out_ << "      },\n";

        out_ << "      \"branches\": {\n";
        field("        ", "entropy", p.branchEntropy);
        field("        ", "taken_bias", p.takenBias, true);
        out_ << "      },\n";

        out_ << "      \"code\": {\n";
        field("        ", "footprint_bytes", p.codeFootprintBytes);
        field("        ", "zipf_s", p.codeZipfS);
        field("        ", "far_jump_frac", p.farJumpFrac, true);
        out_ << "      },\n";

        out_ << "      \"ilp\": {\n";
        field("        ", "dep_geo_p", p.depGeoP);
        field("        ", "dep_none_frac", p.depNoneFrac, true);
        out_ << "      },\n";

        out_ << "      \"quirks\": {\n";
        field("        ", "lcp_frac", p.lcpFrac);
        field("        ", "misaligned_frac", p.misalignedFrac);
        field("        ", "store_forward_frac", p.storeForwardFrac);
        field("        ", "store_forward_partial_frac",
              p.storeForwardPartialFrac);
        field("        ", "store_addr_slow_frac", p.storeAddrSlowFrac,
              true);
        out_ << "      }\n";

        out_ << "    }";
    }

    std::ostream &out_;
};

// ---------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------

/**
 * Checked member access over one object, tracking the JSON path for
 * error messages and rejecting unknown keys once the schema has
 * consumed everything it knows about.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue &object, std::string path,
                 const std::string &source)
        : object_(object), path_(std::move(path)), source_(source)
    {
    }

    [[noreturn]] void
    fail(const std::string &where, const std::string &msg) const
    {
        throw UsageError(source_ + ": " + where + ": " + msg);
    }

    const JsonValue &
    get(const char *key, JsonValue::Type type) const
    {
        const JsonValue *value = object_.find(key);
        const std::string where =
            path_.empty() ? key : path_ + "." + key;
        if (value == nullptr)
            fail(path_.empty() ? "top level" : path_,
                 std::string("missing required member '") + key + "'");
        if (value->type() != type)
            fail(where, std::string("expected ") +
                            JsonValue::typeName(type) + ", got " +
                            value->typeName());
        seen_.insert(key);
        return *value;
    }

    double
    number(const char *key) const
    {
        return get(key, JsonValue::Type::Number).number();
    }

    std::uint64_t
    integer(const char *key) const
    {
        const JsonValue &value = get(key, JsonValue::Type::Number);
        if (!value.isUnsignedIntegral())
            fail(path_ + "." + key,
                 "expected a non-negative integer, got " +
                     json::jsonNumberText(value.number()));
        return value.unsignedIntegral();
    }

    std::string
    string(const char *key) const
    {
        return get(key, JsonValue::Type::String).string();
    }

    /** After reading every known member, reject the leftovers. */
    void
    rejectUnknown() const
    {
        for (const auto &[key, value] : object_.members()) {
            if (!seen_.count(key))
                fail(path_.empty() ? "top level" : path_,
                     "unknown member '" + key + "'");
        }
    }

    ObjectReader
    child(const char *key) const
    {
        const JsonValue &value = get(key, JsonValue::Type::Object);
        return ObjectReader(
            value, path_.empty() ? key : path_ + "." + key, source_);
    }

    const JsonValue &raw() const { return object_; }
    const std::string &path() const { return path_; }

  private:
    const JsonValue &object_;
    std::string path_;
    const std::string &source_;
    mutable std::set<std::string> seen_;
};

PhaseSpec
phaseFromJson(const JsonValue &value, const std::string &path,
              const std::string &source)
{
    if (!value.isObject())
        throw UsageError(source + ": " + path +
                         ": expected object, got " +
                         value.typeName());
    ObjectReader phase(value, path, source);
    PhaseSpec spec;
    PhaseParams &p = spec.params;
    p.name = phase.string("name");
    const std::uint64_t sections = phase.integer("sections");
    if (sections == 0)
        phase.fail(path + ".sections", "must be at least 1");
    spec.sections = static_cast<std::size_t>(sections);

    const ObjectReader mix = phase.child("mix");
    p.loadFrac = mix.number("load");
    p.storeFrac = mix.number("store");
    p.branchFrac = mix.number("branch");
    p.fpAddFrac = mix.number("fp_add");
    p.fpMulFrac = mix.number("fp_mul");
    p.fpDivFrac = mix.number("fp_div");
    p.intMulFrac = mix.number("int_mul");
    mix.rejectUnknown();

    const ObjectReader data = phase.child("data");
    p.workingSetBytes = data.integer("working_set_bytes");
    p.hotFrac = data.number("hot_frac");
    p.hotBytes = data.integer("hot_bytes");
    p.pointerChaseFrac = data.number("pointer_chase_frac");
    p.chasePageLocalFrac = data.number("chase_page_local_frac");
    p.streamFrac = data.number("stream_frac");
    p.strideBytes = data.integer("stride_bytes");
    p.zipfS = data.number("zipf_s");
    data.rejectUnknown();

    const ObjectReader branches = phase.child("branches");
    p.branchEntropy = branches.number("entropy");
    p.takenBias = branches.number("taken_bias");
    branches.rejectUnknown();

    const ObjectReader code = phase.child("code");
    p.codeFootprintBytes = code.integer("footprint_bytes");
    p.codeZipfS = code.number("zipf_s");
    p.farJumpFrac = code.number("far_jump_frac");
    code.rejectUnknown();

    const ObjectReader ilp = phase.child("ilp");
    p.depGeoP = ilp.number("dep_geo_p");
    p.depNoneFrac = ilp.number("dep_none_frac");
    ilp.rejectUnknown();

    const ObjectReader quirks = phase.child("quirks");
    p.lcpFrac = quirks.number("lcp_frac");
    p.misalignedFrac = quirks.number("misaligned_frac");
    p.storeForwardFrac = quirks.number("store_forward_frac");
    p.storeForwardPartialFrac =
        quirks.number("store_forward_partial_frac");
    p.storeAddrSlowFrac = quirks.number("store_addr_slow_frac");
    quirks.rejectUnknown();

    phase.rejectUnknown();

    // Range and cross-field invariants, with the file named so a bad
    // value in a fleet of generated specs is traceable.
    try {
        p.validate();
    } catch (const FatalError &e) {
        throw UsageError(source + ": " + path + ": " + e.what());
    }
    return spec;
}

} // namespace

std::string
workloadSpecToJson(const WorkloadSpec &spec)
{
    std::ostringstream out;
    SpecWriter writer(out);
    writer.write(spec);
    return out.str();
}

WorkloadSpec
workloadSpecFromJson(const JsonValue &root, const std::string &source)
{
    if (!root.isObject())
        throw UsageError(source +
                         ": top level: a workload spec must be a JSON "
                         "object, got " +
                         std::string(root.typeName()));
    ObjectReader top(root, "", source);

    const std::uint64_t version = top.integer(kWorkloadSpecVersionKey);
    if (version != kWorkloadSpecVersion) {
        top.fail(kWorkloadSpecVersionKey,
                 "unsupported schema version " +
                     std::to_string(version) + " (this build reads "
                     "version " +
                     std::to_string(kWorkloadSpecVersion) + ")");
    }

    WorkloadSpec spec;
    spec.name = top.string("name");
    if (spec.name.empty())
        top.fail("name", "must not be empty");

    const JsonValue &phases = top.get("phases", JsonValue::Type::Array);
    if (phases.array().empty())
        top.fail("phases", "a workload needs at least one phase");
    top.rejectUnknown();

    for (std::size_t i = 0; i < phases.array().size(); ++i) {
        spec.phases.push_back(
            phaseFromJson(phases.array()[i],
                          "phases[" + std::to_string(i) + "]",
                          source));
    }
    return spec;
}

WorkloadSpec
parseWorkloadSpec(std::string_view text, const std::string &source)
{
    try {
        const JsonValue root = json::parseJson(text, source);
        return workloadSpecFromJson(root, source);
    } catch (const UsageError &) {
        throw;
    } catch (const FatalError &e) {
        // JSON syntax errors already carry source:line:col context.
        throw UsageError(e.what());
    }
}

WorkloadSpec
loadWorkloadSpecFile(const std::string &path)
{
    try {
        const JsonValue root = json::parseJsonFile(path);
        WorkloadSpec spec = workloadSpecFromJson(
            root, path == "-" ? "<stdin>" : path);
        obs::counter("workload.specs_loaded").increment();
        return spec;
    } catch (const UsageError &) {
        throw;
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
}

void
saveWorkloadSpecFile(const std::string &path, const WorkloadSpec &spec)
{
    // Exactly the canonical text, no trailing newline: every proper
    // prefix of the file is then invalid JSON, so the truncation
    // corpus can demand detection of every cut.
    atomicWriteFile(path, [&](std::ostream &out) {
        SpecWriter writer(out);
        writer.write(spec);
    });
}

std::vector<WorkloadSpec>
loadWorkloadSpecDir(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        throw UsageError("workload spec directory " + dir +
                         " does not exist or is not a directory");

    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    }
    if (ec)
        throw UsageError("cannot list workload spec directory " + dir +
                         ": " + ec.message());
    std::sort(files.begin(), files.end());

    std::vector<WorkloadSpec> specs;
    std::set<std::string> names;
    for (const auto &file : files) {
        WorkloadSpec spec = loadWorkloadSpecFile(file);
        if (!names.insert(spec.name).second)
            throw UsageError(file + ": duplicate workload name '" +
                             spec.name +
                             "' (already defined by another spec in " +
                             dir + ")");
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<WorkloadSpec>
loadEmbeddedSpecs(std::span<const EmbeddedSpec> files)
{
    std::vector<WorkloadSpec> specs;
    specs.reserve(files.size());
    for (const EmbeddedSpec &file : files) {
        const std::string source =
            "embedded " + std::string(file.name) + ".json";
        WorkloadSpec spec = parseWorkloadSpec(file.text, source);
        if (spec.name != file.name)
            throw UsageError(source + ": defines workload '" +
                             spec.name + "', not '" +
                             std::string(file.name) + "'");
        obs::counter("workload.specs_loaded").increment();
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace mtperf::workload
