#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <thread>

#include "cli/args.h"
#include "cli/top_render.h"
#include "common/csv.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "data/io.h"
#include "multicore/corun_runner.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "perf/benchdiff.h"
#include "perf/checkpoint.h"
#include "ml/eval/cross_validation.h"
#include "ml/registry.h"
#include "ml/tree/m5prime.h"
#include "perf/analyzer.h"
#include "perf/diff.h"
#include "perf/json_report.h"
#include "perf/section_collector.h"
#include "serve/client.h"
#include "serve/server.h"
#include "validate/harness.h"
#include "validate/report.h"
#include "workload/runner.h"
#include "workload/spec_gen.h"
#include "workload/spec_io.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace mtperf::cli {

namespace {

/** TCP port serve binds and predict --connect dials by default. */
constexpr std::uint16_t kDefaultServePort = 7077;

/**
 * Observability outputs requested by the current command. Stored at
 * file scope so runCommand() can flush them after the command body
 * finished (or threw) — the dump must reflect the whole run,
 * including counters updated by destructors on the error path.
 */
struct ObsOutputs
{
    std::string tracePath;
    std::string metricsPath;
    obs::MetricsFormat metricsFormat = obs::MetricsFormat::Json;
    std::string timeseriesPath;
    /** Shared: ObsOutputs is copied by value into flushObsOutputs. */
    std::shared_ptr<obs::TimeseriesSampler> timeseries;
};

ObsOutputs g_obsOutputs;

/**
 * Flags every command accepts: --threads sizes the worker pool (0 =
 * auto: the MTPERF_THREADS environment variable if set, otherwise the
 * hardware concurrency), --fault-spec arms deterministic fault
 * injection for robustness testing, and the observability quartet
 * (--trace-out, --metrics-out, --log-json, --log-level) controls
 * tracing, metrics dumps and structured logging.
 */
void
addCommonOptions(ArgParser &parser)
{
    parser.addSize("threads", 0,
                   "worker threads (0 = auto: MTPERF_THREADS env "
                   "or hardware concurrency)");
    parser.addString("fault-spec", "",
                     "arm fault injection: site[:prob[:max]],... "
                     "(see DESIGN.md for the site catalogue)");
    parser.addString("trace-out", "",
                     "write a Chrome trace-event JSON of this run "
                     "(load in Perfetto or chrome://tracing)");
    parser.addString("metrics-out", "",
                     "dump the process metrics registry when the "
                     "command finishes");
    parser.addString("metrics-format", "json",
                     "--metrics-out format: json or prom (Prometheus "
                     "text exposition 0.0.4)");
    parser.addString("timeseries-out", "",
                     "INTERVAL:PATH — sample every counter/gauge/"
                     "histogram at INTERVAL (e.g. 500ms or 2s) into a "
                     "ring and write a CRC-sealed time-series JSON at "
                     "exit");
    parser.addFlag("log-json",
                   "emit log lines as JSON objects (ts_us, level, "
                   "thread, component, msg)");
    parser.addString("log-level", "",
                     "minimum level to log: debug, info, warn, error");
}

/** Apply the common options; call right after parse(). */
void
applyCommonOptions(const ArgParser &parser)
{
    // Logging first, so everything below logs in the requested shape.
    setLogFormat(parser.getFlag("log-json") ? LogFormat::Json
                                            : LogFormat::Text);
    if (parser.given("log-level"))
        setLogLevel(parseLogLevel(parser.getString("log-level")));
    setGlobalThreadCount(parser.getSize("threads", 0, 1024));
    if (parser.given("fault-spec"))
        fault::configure(parser.getString("fault-spec"));
    else
        fault::configureFromEnv();
    g_obsOutputs.tracePath = parser.getString("trace-out");
    g_obsOutputs.metricsPath = parser.getString("metrics-out");
    const std::string format = parser.getString("metrics-format");
    if (format == "json") {
        g_obsOutputs.metricsFormat = obs::MetricsFormat::Json;
    } else if (format == "prom") {
        g_obsOutputs.metricsFormat = obs::MetricsFormat::Prometheus;
    } else {
        throw UsageError("--metrics-format must be json or prom, "
                         "got '" + format + "'");
    }
    const std::string timeseries = parser.getString("timeseries-out");
    if (!timeseries.empty()) {
        obs::TimeseriesSpec spec;
        try {
            spec = obs::parseTimeseriesSpec(timeseries);
        } catch (const FatalError &e) {
            // A malformed flag value is a usage problem (exit 2),
            // not a data problem.
            throw UsageError(e.what());
        }
        obs::TimeseriesSampler::Options sampler_options;
        sampler_options.intervalMs = spec.intervalMs;
        g_obsOutputs.timeseriesPath = spec.path;
        g_obsOutputs.timeseries =
            std::make_shared<obs::TimeseriesSampler>(sampler_options);
        g_obsOutputs.timeseries->start();
    }
    if (!g_obsOutputs.tracePath.empty())
        obs::startTrace();
}

/** The --salvage flag for commands that read datasets. */
void
addSalvageOption(ArgParser &parser)
{
    parser.addFlag("salvage",
                   "recover the valid rows of a damaged input instead "
                   "of failing (drops are counted and logged)");
}

DatasetReadOptions
datasetOptionsFrom(const ArgParser &parser)
{
    DatasetReadOptions options;
    options.salvage = parser.getFlag("salvage");
    return options;
}

/** Tree-option flags shared by train and crossval. */
void
addTreeOptions(ArgParser &parser)
{
    parser.addSize("min-instances", 4,
                   "minimum training instances per leaf");
    parser.addDouble("sd-fraction", 0.05,
                     "purity stop vs. root std-dev");
    parser.addFlag("no-prune", "disable bottom-up pruning");
    parser.addFlag("no-smooth", "disable leaf-model smoothing");
    parser.addFlag("no-simplify", "disable greedy term dropping");
    parser.addSize("max-depth", 0, "maximum tree depth (0 = unlimited)");
}

M5Options
treeOptionsFrom(const ArgParser &parser, std::size_t dataset_size)
{
    M5Options options;
    options.minInstances =
        parser.given("min-instances")
            ? parser.getSize("min-instances", 1, 1000000000)
            : std::max<std::size_t>(4, dataset_size / 22);
    options.sdFraction = parser.getDouble("sd-fraction", 0.0, 1.0);
    options.prune = !parser.getFlag("no-prune");
    options.smooth = !parser.getFlag("no-smooth");
    options.simplifyModels = !parser.getFlag("no-simplify");
    options.maxDepth = parser.getSize("max-depth", 0, 255);
    return options;
}

/**
 * Learner selection shared by train and crossval: --model takes a
 * RegressorFactory spec ("name[:key=value,...]"); a bare "m5prime"
 * additionally honours the individual tree-option flags.
 */
std::unique_ptr<Regressor>
learnerFrom(const ArgParser &parser, std::size_t dataset_size)
{
    const std::string spec = parser.getString("model");
    if (spec == "m5prime") {
        return std::make_unique<M5Prime>(
            treeOptionsFrom(parser, dataset_size));
    }
    return RegressorFactory::create(spec);
}

/** The --workload-file/--workload-dir pair for spec-driven commands. */
void
addWorkloadSourceOptions(ArgParser &parser)
{
    parser.addString("workload-file", "",
                     "run this workload spec JSON instead of the "
                     "built-in suite (\"-\" reads stdin)");
    parser.addString("workload-dir", "",
                     "run every *.json workload spec in this "
                     "directory instead of the built-in suite");
}

/**
 * The workload list a command should run: --workload-file and/or
 * --workload-dir when given (combined, duplicate names rejected),
 * otherwise the suite registry (MTPERF_SPEC_DIR or the embedded
 * specs — see spec_suite.h).
 */
std::vector<workload::WorkloadSpec>
suiteFromFlags(const ArgParser &parser)
{
    const std::string file = parser.getString("workload-file");
    const std::string dir = parser.getString("workload-dir");
    if (file.empty() && dir.empty())
        return workload::specLikeSuite();

    std::vector<workload::WorkloadSpec> suite;
    if (!dir.empty())
        suite = workload::loadWorkloadSpecDir(dir);
    if (!file.empty())
        suite.push_back(workload::loadWorkloadSpecFile(file));
    std::set<std::string> names;
    for (const auto &spec : suite) {
        if (!names.insert(spec.name).second)
            throw UsageError("duplicate workload name '" + spec.name +
                             "' across --workload-dir and "
                             "--workload-file");
    }
    return suite;
}

/**
 * Parse --corun into scenarios: sets are ';'-separated, lanes within
 * a set ','-separated, each lane a workload name resolved against
 * @p suite; every set must name exactly @p cores lanes.
 */
std::vector<multicore::CorunScenario>
corunScenariosFrom(const std::string &corun, std::uint32_t cores,
                   const std::vector<workload::WorkloadSpec> &suite)
{
    std::vector<multicore::CorunScenario> scenarios;
    for (const std::string &set : split(corun, ';')) {
        const std::vector<std::string> names = split(set, ',');
        if (names.size() != cores) {
            throw UsageError(
                "--corun set '" + set + "' names " +
                std::to_string(names.size()) + " workload" +
                (names.size() == 1 ? "" : "s") + " but --cores is " +
                std::to_string(cores) +
                "; each ';'-separated set must pin one workload per "
                "core");
        }
        multicore::CorunScenario scenario;
        for (const std::string &name : names) {
            const auto it = std::find_if(
                suite.begin(), suite.end(),
                [&](const workload::WorkloadSpec &spec) {
                    return spec.name == name;
                });
            if (it == suite.end()) {
                throw UsageError(
                    "--corun: no workload named '" + name +
                    "' in the suite (run `mtperf workloads` to list "
                    "names, or point --workload-dir at your specs)");
            }
            scenario.lanes.push_back(*it);
        }
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

} // namespace

int
cmdSimulate(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("out", "sections.csv", "output CSV path");
    parser.addDouble("scale", 1.0, "section-budget scale factor");
    parser.addSize("instructions", 10000, "instructions per section");
    parser.addSize("seed", 42, "master seed");
    parser.addDouble("jitter", 0.18, "per-section parameter jitter");
    parser.addSize("cores", 1,
                   "simulate this many cores over one shared L2 "
                   "(lockstep, deterministic; needs --corun)");
    parser.addString("corun", "",
                     "co-run sets: comma-separated workload names per "
                     "set (one per core), sets separated by ';'");
    parser.addString("checkpoint", "",
                     "checkpoint path for crash-safe resume (completed "
                     "workloads survive a kill; removed on success)");
    addWorkloadSourceOptions(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    workload::RunnerOptions options;
    options.sectionScale = parser.getDouble("scale", 1e-6, 1e6);
    options.instructionsPerSection =
        parser.getSize("instructions", 1, 1000000000000ULL);
    options.seed = parser.getSize("seed");
    options.paramJitter = parser.getDouble("jitter", 0.0, 1.0);

    const auto cores =
        static_cast<std::uint32_t>(parser.getSize("cores", 1, 64));
    const std::string corun = parser.getString("corun");
    if (!corun.empty() && cores < 2) {
        throw UsageError("--corun needs --cores >= 2 (a co-run set "
                         "pins one workload per core)");
    }
    if (corun.empty() && cores >= 2) {
        throw UsageError("--cores " + std::to_string(cores) +
                         " needs --corun to say what each core runs "
                         "(e.g. --corun mcf_like,gcc_like)");
    }

    const auto suite = suiteFromFlags(parser);
    const std::string checkpoint = parser.getString("checkpoint");
    Dataset ds;
    if (corun.empty()) {
        ds = checkpoint.empty()
                 ? perf::collectSuiteDataset(suite, options)
                 : perf::collectSuiteDatasetCheckpointed(suite, options,
                                                         checkpoint);
    } else {
        const auto scenarios =
            corunScenariosFrom(corun, cores, suite);
        ds = checkpoint.empty()
                 ? perf::collectCorunDataset(scenarios, options)
                 : perf::collectCorunDatasetCheckpointed(
                       scenarios, options, checkpoint);
    }
    writeDatasetCsvFile(parser.getString("out"), ds);
    out << "wrote " << ds.size() << " sections to "
        << parser.getString("out") << "\n";
    return 0;
}

namespace {

/** "64KiB", "2.5MiB": byte counts for the workloads table. */
std::string
humanBytes(std::uint64_t bytes)
{
    static const char *kUnits[] = {"B", "KiB", "MiB", "GiB"};
    double value = static_cast<double>(bytes);
    std::size_t unit = 0;
    while (value >= 1024.0 && unit + 1 < 4) {
        value /= 1024.0;
        ++unit;
    }
    const bool whole = value == static_cast<double>(
                                    static_cast<std::uint64_t>(value));
    return formatDouble(value, whole ? 0 : 1) + kUnits[unit];
}

/**
 * The --json listing: canonical fixed key order (source, then
 * workloads each as name/phases/sections/workingSetMinBytes/
 * workingSetMaxBytes), emitted by hand so the bytes are stable and
 * machine consumers can diff them; a test pins the round trip
 * through common/json.
 */
void
writeWorkloadsJson(std::ostream &out,
                   const std::vector<workload::WorkloadSpec> &suite)
{
    out << "{\n  \"source\": \""
        << jsonEscape(workload::suiteSourceDescription()) << "\",\n"
        << "  \"workloads\": [";
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &spec = suite[i];
        std::uint64_t ws_min = UINT64_MAX, ws_max = 0;
        for (const auto &phase : spec.phases) {
            ws_min = std::min(ws_min, phase.params.workingSetBytes);
            ws_max = std::max(ws_max, phase.params.workingSetBytes);
        }
        out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
            << jsonEscape(spec.name)
            << "\", \"phases\": " << spec.phases.size()
            << ", \"sections\": " << spec.totalSections()
            << ", \"workingSetMinBytes\": " << ws_min
            << ", \"workingSetMaxBytes\": " << ws_max << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace

int
cmdWorkloads(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("workload-dir", "",
                     "also list every *.json workload spec in this "
                     "directory");
    parser.addString("export", "",
                     "write every listed workload into this directory "
                     "as canonical spec JSON files");
    parser.addFlag("json",
                   "machine-readable listing (canonical key order; "
                   "round-trips through a JSON parser)");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    auto suite = workload::specLikeSuite();
    const bool as_json = parser.getFlag("json");
    if (!as_json) {
        out << "suite source: "
            << workload::suiteSourceDescription() << "\n";
    }
    const std::string dir = parser.getString("workload-dir");
    if (!dir.empty()) {
        std::set<std::string> names;
        for (const auto &spec : suite)
            names.insert(spec.name);
        for (auto &spec : workload::loadWorkloadSpecDir(dir)) {
            if (!names.insert(spec.name).second)
                throw UsageError("workload '" + spec.name + "' in " +
                                 dir + " shadows a suite workload of "
                                 "the same name");
            suite.push_back(std::move(spec));
        }
    }

    if (as_json) {
        writeWorkloadsJson(out, suite);
        const std::string export_dir = parser.getString("export");
        if (export_dir.empty())
            return 0;
        throw UsageError("--json and --export do not combine; export "
                         "writes spec files, not the listing");
    }

    out << padRight("name", 22) << padLeft("phases", 7)
        << padLeft("sections", 9) << "  working set\n";
    for (const auto &spec : suite) {
        std::uint64_t ws_min = UINT64_MAX, ws_max = 0;
        for (const auto &phase : spec.phases) {
            ws_min = std::min(ws_min, phase.params.workingSetBytes);
            ws_max = std::max(ws_max, phase.params.workingSetBytes);
        }
        std::string range = humanBytes(ws_min);
        if (ws_max != ws_min)
            range += ".." + humanBytes(ws_max);
        out << padRight(spec.name, 22)
            << padLeft(std::to_string(spec.phases.size()), 7)
            << padLeft(std::to_string(spec.totalSections()), 9)
            << "  " << range << "\n";
    }

    const std::string export_dir = parser.getString("export");
    if (!export_dir.empty()) {
        std::filesystem::create_directories(export_dir);
        for (const auto &spec : suite) {
            workload::saveWorkloadSpecFile(
                (std::filesystem::path(export_dir) /
                 (spec.name + ".json"))
                    .string(),
                spec);
        }
        out << "exported " << suite.size() << " workload specs to "
            << export_dir << "\n";
    }
    return 0;
}

int
cmdGenworkload(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addSize("seed", 1,
                   "generator seed (the same seed always yields the "
                   "same bytes)");
    parser.addSize("count", 1, "number of workload specs to mint");
    parser.addString("out-dir", "",
                     "write <name>.json files here instead of stdout "
                     "(required when --count > 1)");
    parser.addString("prefix", "gen", "generated workload name prefix");
    parser.addSize("max-phases", 3, "most phases per workload");
    parser.addSize("min-sections", 500,
                   "fewest sections per workload");
    parser.addSize("max-sections", 700, "most sections per workload");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    workload::GenOptions options;
    options.seed = parser.getSize("seed");
    options.count = parser.getSize("count", 1, 100000);
    options.maxPhases = parser.getSize("max-phases", 1, 64);
    options.minSections = parser.getSize("min-sections", 1, 100000000);
    options.maxSections = parser.getSize("max-sections", 1, 100000000);
    options.namePrefix = parser.getString("prefix");

    const std::string out_dir = parser.getString("out-dir");
    if (out_dir.empty() && options.count != 1)
        throw UsageError("--count > 1 needs --out-dir DIR (stdout "
                         "holds a single spec document)");

    const auto specs = workload::generateWorkloads(options);
    if (out_dir.empty()) {
        out << workload::workloadSpecToJson(specs.front()) << "\n";
        return 0;
    }
    std::filesystem::create_directories(out_dir);
    for (const auto &spec : specs) {
        workload::saveWorkloadSpecFile(
            (std::filesystem::path(out_dir) / (spec.name + ".json"))
                .string(),
            spec);
    }
    out << "wrote " << specs.size() << " workload spec"
        << (specs.size() == 1 ? "" : "s") << " to " << out_dir << "\n";
    return 0;
}

int
cmdTrain(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("data", "", "training CSV (with CPI column)", true);
    parser.addString("out", "model.m5", "model output path");
    parser.addString("target", "CPI", "target column name");
    parser.addString("model", "m5prime",
                     "learner spec (RegressorFactory name[:key=value,...]; "
                     "must resolve to an M5' tree to be saved)");
    addTreeOptions(parser);
    addSalvageOption(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const Dataset ds =
        readDatasetCsvFile(parser.getString("data"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));
    if (ds.size() == 0)
        mtperf_fatal("training dataset is empty");
    auto learner = learnerFrom(parser, ds.size());
    learner->fit(ds);

    auto *tree = dynamic_cast<M5Prime *>(learner.get());
    if (tree == nullptr)
        throw UsageError("only m5prime learners can be saved as model "
                         "files; got " + learner->name());
    tree->saveFile(parser.getString("out"));

    out << tree->toString() << "\n";
    out << "model with " << tree->numLeaves() << " leaves saved to "
        << parser.getString("out") << "\n";
    return 0;
}

int
cmdPrint(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("model", "", "saved model path", true);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);
    const M5Prime tree = M5Prime::loadFile(parser.getString("model"));
    out << tree.toString();
    return 0;
}

namespace {

/** Send the dataset through a prediction server in bounded chunks. */
std::vector<double>
predictRemote(const Dataset &ds, const std::string &address,
              int timeout_ms, const std::string &model_key)
{
    serve::Client::Options options;
    if (timeout_ms > 0)
        options.timeoutMs = timeout_ms;
    options.modelKey = model_key;
    serve::Client client =
        serve::Client::connect(address, kDefaultServePort, options);

    constexpr std::size_t kChunkRows = 256;
    const std::size_t width = ds.numAttributes();
    const std::span<const double> flat = ds.flatValues();
    std::vector<double> predictions;
    predictions.reserve(ds.size());
    for (std::size_t first = 0; first < ds.size();
         first += kChunkRows) {
        const std::size_t count =
            std::min(kChunkRows, ds.size() - first);
        const serve::PredictResponse response = client.predict(
            flat.subspan(first * width, count * width), width);
        predictions.insert(predictions.end(),
                           response.predictions.begin(),
                           response.predictions.end());
    }
    return predictions;
}

} // namespace

int
cmdPredict(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("model", "", "saved model path");
    parser.addString("connect", "",
                     "predict via a running server instead of a "
                     "model file (HOST[:PORT] or unix:PATH)");
    parser.addSize("timeout-ms", 0,
                   "server receive timeout (0 = client default)");
    parser.addString("model-key", "",
                     "with --connect: predict against this keyed "
                     "model (empty = the server's default model)");
    parser.addString("data", "", "CSV to predict on", true);
    parser.addString("out", "", "optional predictions CSV path");
    parser.addString("target", "CPI", "target column name");
    addSalvageOption(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const std::string model_path = parser.getString("model");
    const std::string address = parser.getString("connect");
    if (model_path.empty() == address.empty())
        throw UsageError(
            "predict needs exactly one of --model FILE (local) or "
            "--connect ADDRESS (remote)");
    const std::string model_key = parser.getString("model-key");
    if (!model_key.empty() && address.empty())
        throw UsageError("--model-key only applies with --connect");
    if (model_key.size() > serve::kMaxModelKey)
        throw UsageError("--model-key longer than " +
                         std::to_string(serve::kMaxModelKey) +
                         " bytes");
    const int timeout_ms = static_cast<int>(
        parser.getSize("timeout-ms", 0, 3600000));

    const Dataset ds =
        readDatasetCsvFile(parser.getString("data"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));

    std::vector<double> predictions;
    if (!address.empty()) {
        predictions = predictRemote(ds, address, timeout_ms,
                                    model_key);
    } else {
        const M5Prime tree = M5Prime::loadFile(model_path);
        if (!(ds.schema() == tree.schema()))
            mtperf_fatal("dataset schema does not match the model's");
        predictions = tree.predictAll(ds);
    }
    const auto metrics = computeMetrics(ds.targets(), predictions);
    out << "predicted " << ds.size()
        << " sections: " << metrics.summary() << "\n";

    const std::string out_path = parser.getString("out");
    if (!out_path.empty()) {
        CsvTable table;
        table.header = {"actual", "predicted", "tag"};
        for (std::size_t r = 0; r < ds.size(); ++r) {
            std::ostringstream a, p;
            a.precision(10);
            p.precision(10);
            a << ds.target(r);
            p << predictions[r];
            table.addRow({a.str(), p.str(), ds.tag(r)});
        }
        writeCsvFile(out_path, table);
        out << "predictions written to " << out_path << "\n";
    }
    return 0;
}

int
cmdAnalyze(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("model", "", "saved model path", true);
    parser.addString("data", "", "CSV to analyze", true);
    parser.addString("target", "CPI", "target column name");
    parser.addFlag("json", "emit the report as JSON");
    addSalvageOption(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const M5Prime tree = M5Prime::loadFile(parser.getString("model"));
    const Dataset ds =
        readDatasetCsvFile(parser.getString("data"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));
    if (!(ds.schema() == tree.schema()))
        mtperf_fatal("dataset schema does not match the model's");

    if (parser.getFlag("json")) {
        out << perf::analysisToJson(tree, ds) << "\n";
        return 0;
    }
    const perf::PerformanceAnalyzer analyzer(tree, tree.schema());
    out << analyzer.report(ds);
    return 0;
}

int
cmdCrossval(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("data", "", "CSV to cross-validate on", true);
    parser.addString("target", "CPI", "target column name");
    parser.addString("model", "m5prime",
                     "learner spec (RegressorFactory "
                     "name[:key=value,...])");
    parser.addSize("folds", 10, "number of folds");
    parser.addSize("seed", 7, "fold-shuffle seed");
    addTreeOptions(parser);
    addSalvageOption(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const std::uint64_t folds = parser.getSize("folds", 2, 1000);
    const Dataset ds =
        readDatasetCsvFile(parser.getString("data"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));
    if (folds > ds.size()) {
        throw UsageError("--folds " + std::to_string(folds) +
                         " exceeds the dataset's " +
                         std::to_string(ds.size()) + " rows");
    }
    const auto prototype = learnerFrom(parser, ds.size());
    const auto cv = crossValidate(*prototype, ds, folds,
                                  parser.getSize("seed"));

    out << folds << "-fold CV: " << cv.pooled.summary() << "\n";
    for (std::size_t f = 0; f < cv.perFold.size(); ++f)
        out << "  fold " << (f + 1) << ": "
            << cv.perFold[f].summary() << "\n";
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("model", "", "saved model path", true);
    parser.addString("before", "", "baseline section CSV", true);
    parser.addString("after", "", "changed-run section CSV", true);
    parser.addString("target", "CPI", "target column name");
    addSalvageOption(parser);
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const M5Prime tree = M5Prime::loadFile(parser.getString("model"));
    const Dataset before =
        readDatasetCsvFile(parser.getString("before"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));
    const Dataset after =
        readDatasetCsvFile(parser.getString("after"),
                           parser.getString("target"),
                           datasetOptionsFrom(parser));
    const perf::DiffReport report =
        perf::diffDatasets(tree, before, after);
    out << perf::formatDiff(report, tree);
    return 0;
}

int
cmdStack(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("workload", "",
                     "suite workload name (see mtperf workloads)");
    parser.addString("workload-file", "",
                     "workload spec JSON instead of a suite name "
                     "(\"-\" reads stdin)");
    parser.addSize("instructions", 500000, "instructions to simulate");
    parser.addSize("seed", 42, "stream seed");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const std::string name = parser.getString("workload");
    const std::string file = parser.getString("workload-file");
    if (name.empty() == file.empty())
        throw UsageError("stack needs exactly one of --workload NAME "
                         "or --workload-file FILE");
    const auto spec = file.empty()
                          ? workload::suiteWorkload(name)
                          : workload::loadWorkloadSpecFile(file);
    uarch::Core core;
    const std::uint64_t budget =
        parser.getSize("instructions", 1, 1000000000000ULL);
    std::uint64_t executed = 0;
    for (const auto &phase : spec.phases) {
        workload::StreamGenerator gen(phase.params,
                                      parser.getSize("seed"));
        const std::uint64_t share =
            budget * phase.sections / spec.totalSections();
        for (std::uint64_t i = 0; i < share; ++i)
            core.execute(gen.next());
        executed += share;
    }
    if (executed == 0)
        mtperf_fatal("no instructions executed");

    const auto &stack = core.cpiStack();
    const auto per_instr = [executed](std::uint64_t cycles) {
        return static_cast<double>(cycles) /
               static_cast<double>(executed);
    };
    out << "CPI stack of " << spec.name << " over " << executed
        << " instructions (cycles/instruction):\n";
    const double cpi = per_instr(core.counters().cycles);
    auto line = [&](const char *name, std::uint64_t cycles) {
        if (cycles == 0)
            return;
        out << "  " << padRight(name, 15)
            << padLeft(formatDouble(per_instr(cycles), 3), 8) << "  ("
            << formatDouble(100.0 * per_instr(cycles) / cpi, 1)
            << "%)\n";
    };
    out << "  " << padRight("total CPI", 15)
        << padLeft(formatDouble(cpi, 3), 8) << "\n";
    line("base", stack.base);
    line("frontend", stack.frontend);
    line("resteer", stack.resteer);
    line("L2 miss", stack.memL2);
    line("L1D miss", stack.memL1d);
    line("TLB walks", stack.dtlb);
    line("store-forward", stack.storeForward);
    line("misalign/split", stack.memOther);
    line("long latency", stack.longLatency);
    line("window/dep", stack.window);
    return 0;
}

namespace {

/**
 * The server the signal handlers talk to. Handlers only flip atomics
 * on it (async-signal-safe); install/uninstall happens on the cmdServe
 * thread before start() and after wait().
 */
std::atomic<serve::Server *> g_signalServer{nullptr};

extern "C" void
serveSignalHandler(int signum)
{
    serve::Server *server =
        g_signalServer.load(std::memory_order_relaxed);
    if (server == nullptr)
        return;
    if (signum == SIGHUP)
        server->requestReload();
    else
        server->requestStop();
}

} // namespace

int
cmdServe(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("model", "", "saved model path", true);
    parser.addString("models", "",
                     "additional keyed models: KEY=PATH[,KEY=PATH...] "
                     "(clients select one with --model-key; --model "
                     "serves as key 'default')");
    parser.addString("listen", "127.0.0.1",
                     "bind address: HOST, HOST:PORT or unix:PATH");
    parser.addSize("port", kDefaultServePort,
                   "TCP port when --listen has none (0 = ephemeral)");
    parser.addSize("io-threads", 1,
                   "epoll event-loop threads multiplexing the "
                   "connections");
    parser.addSize("timeout-ms", 0,
                   "drop connections idle this long (0 = never)");
    parser.addSize("metrics-port", 0,
                   "expose GET /metrics (Prometheus text exposition) "
                   "on this TCP port (0 = ephemeral; omit the flag to "
                   "disable the listener)");
    parser.addString("metrics-host", "127.0.0.1",
                     "bind address of the /metrics listener");
    parser.addDouble("slo-latency-us", 50000.0,
                     "SLO latency objective per predict request");
    parser.addSize("slo-window-s", 60,
                   "SLO sliding window length in seconds");
    parser.addDouble("slo-budget", 0.01,
                     "SLO error budget: tolerated fraction of "
                     "violating or failed requests in the window");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    // Validate every numeric eagerly so a bad value exits 2 before
    // any model loading or binding happens.
    serve::ServerOptions options;
    options.port =
        static_cast<std::uint16_t>(parser.getSize("port", 0, 65535));
    options.ioThreads = parser.getSize("io-threads", 1, 256);
    options.idleTimeoutMs = static_cast<int>(
        parser.getSize("timeout-ms", 0, 86400000));
    options.modelPath = parser.getString("model");
    options.listen = parser.getString("listen");
    const std::string models_spec = parser.getString("models");
    if (!models_spec.empty()) {
        std::set<std::string> seen{"default"};
        for (const std::string &entry : split(models_spec, ',')) {
            const std::size_t eq = entry.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == entry.size())
                throw UsageError("--models entries are KEY=PATH, "
                                 "got '" + entry + "'");
            const std::string key = trim(entry.substr(0, eq));
            const std::string path = trim(entry.substr(eq + 1));
            if (key.empty() || key.size() > serve::kMaxModelKey)
                throw UsageError("--models key must be 1.." +
                                 std::to_string(serve::kMaxModelKey) +
                                 " bytes, got '" + key + "'");
            if (!seen.insert(key).second)
                throw UsageError("--models key '" + key +
                                 "' given twice ('default' is "
                                 "reserved for --model)");
            options.models.emplace_back(key, path);
        }
    }
    if (parser.given("metrics-port") ||
        parser.given("metrics-host")) {
        options.metricsHttp = true;
        options.metricsPort = static_cast<std::uint16_t>(
            parser.getSize("metrics-port", 0, 65535));
        options.metricsHost = parser.getString("metrics-host");
    }
    options.slo.latencyObjectiveUs =
        parser.getDouble("slo-latency-us", 1.0, 1e9);
    options.slo.windowSeconds = static_cast<int>(
        parser.getSize("slo-window-s", 1, 3600));
    options.slo.errorBudget =
        parser.getDouble("slo-budget", 1e-6, 1.0);

    // Two processes feed one merged Perfetto trace; label this one so
    // client and server rows are distinguishable.
    obs::setTraceProcessLabel("mtperf serve");

    serve::Server server(options);
    g_signalServer.store(&server, std::memory_order_relaxed);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGHUP, serveSignalHandler);

    server.start();
    out << "serving " << options.modelPath << " at "
        << server.endpoint()
        << " (SIGHUP reloads, SIGINT/SIGTERM stop)\n";
    if (options.ioThreads > 1 || !options.models.empty()) {
        out << "  " << options.ioThreads << " io-thread(s), "
            << (1 + options.models.size()) << " model(s)\n";
    }
    if (options.metricsHttp) {
        out << "metrics at http://" << options.metricsHost << ":"
            << server.metricsPort() << "/metrics\n";
    }
    out.flush();
    server.wait();

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGHUP, SIG_DFL);
    g_signalServer.store(nullptr, std::memory_order_relaxed);

    out << "server stopped\n";
    return 0;
}

namespace {

/** Monotonic scrape timestamp for a TopSample, in seconds. */
double
topNowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
cmdTop(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addString("http", "",
                     "scrape GET /metrics at HOST:PORT (the serve "
                     "--metrics-port listener)", true);
    parser.addFlag("once", "render a single frame and exit");
    parser.addSize("interval-ms", 1000, "delay between scrapes");
    parser.addSize("frames", 0,
                   "stop after this many frames (0 = run until "
                   "interrupted)");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    const std::string http = parser.getString("http");
    const std::uint64_t interval =
        parser.getSize("interval-ms", 10, 3600000);
    std::uint64_t frames = parser.getSize("frames", 0, 1000000000);
    if (parser.getFlag("once"))
        frames = 1;

    const std::size_t colon = http.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == http.size())
        throw UsageError("--http needs HOST:PORT, got '" + http + "'");
    const std::string host = http.substr(0, colon);
    std::uint64_t port_raw = 0;
    try {
        port_raw = parseSize(http.substr(colon + 1), "--http");
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
    if (port_raw == 0 || port_raw > 65535)
        throw UsageError("--http port must be in [1, 65535]");
    const auto port = static_cast<std::uint16_t>(port_raw);
    const auto scrape = [&host, port] {
        const obs::HttpResponse response =
            obs::httpGet(host, port, "/metrics");
        if (response.status != 200)
            mtperf_fatal("GET /metrics returned HTTP ", response.status);
        return response.body;
    };

    TopSample prev{obs::parsePrometheusText(scrape()),
                   topNowSeconds()};
    for (std::uint64_t frame = 0; frames == 0 || frame < frames;
         ++frame) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval));
        TopSample cur{obs::parsePrometheusText(scrape()),
                      topNowSeconds()};
        if (frames != 1)
            out << "\x1b[2J\x1b[H"; // clear + home between frames
        renderTopFrame(out, http, prev, cur);
        out.flush();
        prev = std::move(cur);
    }
    return 0;
}

int
cmdBenchdiff(const std::vector<std::string> &args, std::ostream &out)
{
    // The parser is flag-only, so peel the two leading positionals
    // by hand: benchdiff BASE HEAD [--verdict-out FILE].
    std::vector<std::string> positionals;
    std::size_t next = 0;
    while (next < args.size() && positionals.size() < 2 &&
           !startsWith(args[next], "--"))
        positionals.push_back(args[next++]);
    if (positionals.size() != 2)
        throw UsageError("benchdiff compares two files of perfbench "
                         "runs: mtperf benchdiff BASE HEAD [options]");
    const std::vector<std::string> rest(
        args.begin() + static_cast<std::ptrdiff_t>(next), args.end());

    ArgParser parser;
    parser.addString("verdict-out", "",
                     "write the CRC-sealed verdict JSON here");
    addCommonOptions(parser);
    parser.parse(rest);
    applyCommonOptions(parser);

    // The benchmark's own declarations, read from the checkout root
    // perfbench/run.py also runs in.
    const perf::BenchDiffReport report = perf::diffBenchFiles(
        positionals[0], positionals[1],
        perf::readBenchDeclarations("BENCHMARK.json",
                                    "perfbench/protocol.json"));
    out << perf::formatBenchDiff(report);
    const std::string verdict = parser.getString("verdict-out");
    if (!verdict.empty()) {
        perf::writeBenchDiffFile(verdict, report);
        out << "verdict written to " << verdict << "\n";
    }
    return report.pass() ? 0 : kExitBenchRegression;
}

int
cmdValidate(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addSize("instructions", 200000,
                   "instructions to simulate per oracle workload");
    parser.addSize("seed", 42, "stream seed");
    parser.addString("report", "",
                     "write the JSON drift report here (crash-safe, "
                     "CRC-sealed)");
    parser.addString("oracle-dir", "",
                     "directory of oracle workload specs (default: "
                     "the specs/oracle/ suite built into the binary)");
    parser.addString("inject-counter-bug", "",
                     "test hook: double the named counter after "
                     "simulation to rehearse an accounting bug");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);

    validate::ValidateOptions options;
    options.instructions =
        parser.getSize("instructions", 1, 1000000000ULL);
    options.seed = parser.getSize("seed");
    options.oracleDir = parser.getString("oracle-dir");
    options.injectCounterBug = parser.getString("inject-counter-bug");

    const validate::ValidateReport report =
        validate::runValidation(options);

    for (const auto &workload : report.workloads) {
        out << workload.workload << " (" << workload.family << "): "
            << workload.counters.size() - workload.failed() << "/"
            << workload.counters.size() << " counters in bounds\n";
        for (const auto &check : workload.counters) {
            if (check.pass)
                continue;
            out << "  DRIFT " << check.counter << ": actual "
                << check.actual << " outside ["
                << formatDouble(check.lo, 1) << ", "
                << formatDouble(check.hi, 1) << "] (expected "
                << formatDouble(check.expected, 1)
                << ", relative error "
                << formatDouble(check.relativeError, 4) << ")\n";
        }
    }
    out << "checked " << report.checked() << " counters across "
        << report.workloads.size() << " oracle workloads: "
        << report.failed() << " drifted\n";

    const std::string path = parser.getString("report");
    if (!path.empty()) {
        validate::writeDriftReportFile(path, report);
        out << "drift report written to " << path << "\n";
    }
    return report.passed() ? 0 : kExitCounterDrift;
}

int
cmdVersion(const std::vector<std::string> &args, std::ostream &out)
{
    ArgParser parser;
    parser.addFlag("json",
                   "emit machine-readable build provenance JSON");
    addCommonOptions(parser);
    parser.parse(args);
    applyCommonOptions(parser);
    if (parser.getFlag("json")) {
        // Canonical fixed key order, parseable by common/json.
        out << "{\"mtperf_version\":1,\"version\":\""
            << jsonEscape(obs::buildVersion()) << "\",\"git_sha\":\""
            << jsonEscape(obs::buildGitSha()) << "\",\"compiler\":\""
            << jsonEscape(obs::buildCompiler())
            << "\",\"build_type\":\"" << jsonEscape(obs::buildType())
            << "\"}\n";
        return 0;
    }
    out << obs::buildSummary() << "\n"
        << "version " << obs::buildVersion() << "\n"
        << "git " << obs::buildGitSha() << "\n"
        << "compiler " << obs::buildCompiler() << "\n"
        << "build-type " << obs::buildType() << "\n";
    return 0;
}

std::string
usageText()
{
    return "usage: mtperf <command> [options]\n"
           "\n"
           "commands:\n"
           "  simulate   run the workload suite, write a section CSV;\n"
           "             --cores N --corun a,b[;c,d] co-runs workload\n"
           "             sets over one shared L2 with per-core\n"
           "             contention counters\n"
           "  workloads  list available workload specs; --export DIR\n"
           "             writes them as canonical spec JSON files and\n"
           "             --json emits a machine-readable listing\n"
           "  genworkload  mint novel workload specs from --seed\n"
           "  train      learn an M5' model tree from a section CSV\n"
           "  print      pretty-print a saved model\n"
           "  predict    apply a saved model to a CSV\n"
           "  analyze    performance-analysis report for a CSV\n"
           "  crossval   k-fold cross-validation on a CSV\n"
           "  diff       before/after comparison of two CSVs\n"
           "  stack      simulator CPI stack for one suite workload\n"
           "  serve      prediction server with batched inference,\n"
           "             hot reload (SIGHUP/RELOAD) and an optional\n"
           "             GET /metrics listener (--metrics-port)\n"
           "  validate   assert the simulated event counters against\n"
           "             analytic oracle workloads (--report FILE\n"
           "             writes a CRC-sealed JSON drift report)\n"
           "  top        live terminal dashboard over a running serve\n"
           "             daemon's --http HOST:PORT (GET /metrics);\n"
           "             --once renders one frame and exits\n"
           "  benchdiff  judge two files of perfbench runs (BASE\n"
           "             HEAD, paired by order) by the directions and\n"
           "             bounds BENCHMARK.json declares; run it from\n"
           "             the checkout root; exits 6 on a regression\n"
           "             (--verdict-out writes the sealed verdict)\n"
           "  version    build metadata (version, git sha, compiler;\n"
           "             --json for machine-readable provenance)\n"
           "  help       show this text\n"
           "\n"
           "every command accepts --threads N to size the worker\n"
           "pool (0 = auto: MTPERF_THREADS env, else hardware\n"
           "concurrency; 1 = fully serial) and --fault-spec to arm\n"
           "deterministic fault injection. observability:\n"
           "--trace-out FILE writes a Chrome trace-event JSON of the\n"
           "run (load in Perfetto), --metrics-out FILE dumps the\n"
           "process metrics registry (--metrics-format json|prom\n"
           "picks JSON or Prometheus text exposition),\n"
           "--timeseries-out INTERVAL:PATH samples every metric on a\n"
           "background thread (e.g. 500ms:ts.json) into a CRC-sealed\n"
           "time-series document, --log-json switches\n"
           "stderr logging to JSON lines, and --log-level LEVEL sets\n"
           "the threshold (debug, info, warn, error).\n"
           "commands that read\n"
           "datasets accept --salvage to recover the valid rows of a\n"
           "damaged file. simulate --checkpoint PATH resumes a killed\n"
           "run. simulate and stack take --workload-file FILE (\"-\"\n"
           "reads stdin) to run a workload spec JSON, and simulate\n"
           "--workload-dir DIR runs every *.json spec in DIR; see\n"
           "DESIGN.md section 12 for the schema.\n"
           "train and crossval take\n"
           "--model name[:key=value,...] to pick the learner, e.g.\n"
           "--model mlp:hidden=24-12,epochs=250. predict --connect\n"
           "HOST[:PORT]|unix:PATH sends rows to a running serve\n"
           "daemon instead of loading a model file.\n"
           "\n"
           "exit codes: 0 success, 2 usage error (bad flags or\n"
           "values), 3 bad data (missing, corrupt or unparsable\n"
           "input), 4 internal error, 5 counter drift (validate\n"
           "found an event counter outside its oracle bounds),\n"
           "6 bench regression (benchdiff found a metric worse than\n"
           "its bound, a changed exact metric or a failed head run).\n";
}

namespace {

/** The subcommand table runCommand() dispatches over. */
CommandFn
commandFor(const std::string &subcommand)
{
    if (subcommand == "simulate")
        return cmdSimulate;
    if (subcommand == "workloads")
        return cmdWorkloads;
    if (subcommand == "genworkload")
        return cmdGenworkload;
    if (subcommand == "train")
        return cmdTrain;
    if (subcommand == "print")
        return cmdPrint;
    if (subcommand == "predict")
        return cmdPredict;
    if (subcommand == "analyze")
        return cmdAnalyze;
    if (subcommand == "crossval")
        return cmdCrossval;
    if (subcommand == "diff")
        return cmdDiff;
    if (subcommand == "stack")
        return cmdStack;
    if (subcommand == "serve")
        return cmdServe;
    if (subcommand == "validate")
        return cmdValidate;
    if (subcommand == "top")
        return cmdTop;
    if (subcommand == "benchdiff")
        return cmdBenchdiff;
    if (subcommand == "version")
        return cmdVersion;
    return nullptr;
}

/**
 * Write the trace/metrics files the command's --trace-out /
 * --metrics-out asked for. Runs on success and on error paths alike
 * (a failed run's trace is often the one worth looking at). A flush
 * failure on an otherwise clean run becomes exit 3; an existing
 * nonzero status is preserved.
 */
int
flushObsOutputs(int status, std::ostream &out)
{
    const ObsOutputs pending = g_obsOutputs;
    g_obsOutputs = ObsOutputs{};
    if (!pending.tracePath.empty()) {
        try {
            obs::writeTraceFile(pending.tracePath);
            out << "trace written to " << pending.tracePath << "\n";
        } catch (const std::exception &e) {
            warnAs("obs", "failed to write trace file ",
                   pending.tracePath, ": ", e.what());
            if (status == 0)
                status = 3;
        }
    }
    if (!pending.metricsPath.empty()) {
        try {
            obs::writeMetricsFile(pending.metricsPath,
                                  pending.metricsFormat);
            out << "metrics written to " << pending.metricsPath
                << "\n";
        } catch (const std::exception &e) {
            warnAs("obs", "failed to write metrics file ",
                   pending.metricsPath, ": ", e.what());
            if (status == 0)
                status = 3;
        }
    }
    if (pending.timeseries) {
        pending.timeseries->stop(); // takes the final sample
        try {
            pending.timeseries->writeFile(pending.timeseriesPath);
            out << "timeseries written to "
                << pending.timeseriesPath << " ("
                << pending.timeseries->retained() << " of "
                << pending.timeseries->taken() << " samples)\n";
        } catch (const std::exception &e) {
            warnAs("obs", "failed to write timeseries file ",
                   pending.timeseriesPath, ": ", e.what());
            if (status == 0)
                status = 3;
        }
    }
    return status;
}

} // namespace

int
runCommand(const std::string &subcommand,
           const std::vector<std::string> &args, std::ostream &out)
{
    const CommandFn command = commandFor(subcommand);
    if (command == nullptr) {
        out << usageText();
        return subcommand == "help" ? 0 : 2;
    }

    g_obsOutputs = ObsOutputs{}; // drop paths from any earlier command
    int status = 0;
    try {
        status = command(args, out);
    } catch (const UsageError &e) {
        out << "usage error: " << e.what() << "\n";
        status = 2;
    } catch (const FatalError &e) {
        out << "error: " << e.what() << "\n";
        status = 3;
    } catch (const std::exception &e) {
        // Anything not raised through the mtperf error taxonomy is an
        // internal bug, not a user or data problem; distinguish it.
        out << "internal error: " << e.what() << "\n";
        status = 4;
    }
    return flushObsOutputs(status, out);
}

} // namespace mtperf::cli
