/**
 * @file
 * perfbench: one run of the mtperf pipeline benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root CHECKOUT --work-dir DIR
 *
 * Sets up three times (the median is setup_s), then runs the simulate,
 * model and serve stages in kRounds rounds. The workload's own stage
 * measures for S seconds in all, spread over the rounds; the other two
 * run at a small fixed size each round. The metrics and their
 * directions come from CHECKOUT/BENCHMARK.json, the exact counts from
 * CHECKOUT/perfbench/protocol.json. With --trace 0 the result carries
 * the end-to-end metrics; with --trace 1 the per-layer ones, from spans
 * recorded around each library call and written to DIR at exit. The
 * last line of standard output is the result as one JSON object. Exit
 * status 0 means every output check passed, 1 that one failed, 2 a
 * usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>

#include "common/checksum.h"
#include "common/json.h"
#include "common/parallel.h"
#include "data/io.h"
#include "perf/section_collector.h"
#include "stages.h"
#include "trace.h"
#include "workload/runner.h"
#include "workload/spec_suite.h"

namespace perfbench {

using namespace mtperf;

namespace {

/** Suite workloads the committed specs/ directory defines. */
constexpr std::size_t kSuiteSize = 17;

/** Repetitions of set-up; setup_s is their median. */
constexpr int kSetups = 3;

/** Section scale of the simulate stage: ~25M instructions. */
constexpr double kSimScale = 0.25;
/** Section scale when simulate is not the workload's own stage. */
constexpr double kSimSmokeScale = 0.05;

/** Rounds of the three stages; each stage's reps spread over the run. */
constexpr int kRounds = 5;

/**
 * Seconds a round gives the model stage when it is not the workload's
 * own. Its timings are best-of-repetitions, and the host's slow
 * episodes can last several iterations, so it needs about as many
 * iterations as when it is the workload's own stage.
 */
constexpr double kSideModelSeconds = 2.5;

/** Layers whose self time a traced run reports. */
const std::vector<std::string> kLayers = {
    "stage", "sim", "workload", "uarch", "perf", "data", "ml", "serve",
};

/** A metric BENCHMARK.json declares, and which way is better. */
struct Declared
{
    std::string name;
    bool higherIsBetter = false;
};

/** The metric lists, read from BENCHMARK.json and perfbench/protocol.json. */
struct Declarations
{
    std::vector<Declared> endToEnd;
    std::vector<Declared> perLayer;
    std::set<std::string> exact; //!< deterministic counts
};

Declarations
loadDeclarations(const std::string &root)
{
    Declarations declared;
    const json::JsonValue bench = json::parseJsonFile(root + "/BENCHMARK.json");
    for (auto [key, list] : {std::pair{"end_to_end", &declared.endToEnd},
                             std::pair{"per_layer", &declared.perLayer}}) {
        for (const json::JsonValue &item : bench.find(key)->array()) {
            list->push_back({item.find("name")->string(),
                             item.find("better")->string() == "higher"});
        }
    }
    const json::JsonValue protocol =
        json::parseJsonFile(root + "/perfbench/protocol.json");
    for (const json::JsonValue &item : protocol.find("exact_metrics")->array())
        declared.exact.insert(item.string());
    return declared;
}

/**
 * One value per metric from the rounds' values: exact counts must agree
 * across rounds; an end-to-end timing takes the best round, since the
 * host's slow episodes only ever make a round worse; a per-layer value
 * takes the median.
 */
void
combineRounds(const std::vector<Metrics> &rounds,
              const Declarations &declared, Metrics &metrics,
              Outcome &outcome)
{
    auto combine = [&](const Declared &metric, bool end_to_end) {
        std::vector<double> values;
        std::string unit;
        for (const Metrics &round : rounds) {
            if (round.has(metric.name)) {
                values.push_back(round.at(metric.name).first);
                unit = round.at(metric.name).second;
            }
        }
        if (values.empty())
            return;
        double value = median(values);
        if (declared.exact.count(metric.name)) {
            value = values.front();
            outcome.check(std::all_of(values.begin(), values.end(),
                                      [&](double v) { return v == value; }),
                          metric.name + " differs between rounds");
        } else if (end_to_end) {
            value = metric.higherIsBetter
                        ? *std::max_element(values.begin(), values.end())
                        : *std::min_element(values.begin(), values.end());
        }
        metrics.set(metric.name, value, unit);
    };
    for (const Declared &metric : declared.endToEnd)
        combine(metric, true);
    for (const Declared &metric : declared.perLayer)
        combine(metric, false);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string root = ".";
    std::string workDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload sim_suite|train_counters|"
                 "serve_loopback --seed N --seconds S --trace 0|1 "
                 "--root DIR --work-dir DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (arg == "--root")
                options.root = value;
            else if (arg == "--work-dir")
                options.workDir = value;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (options.workload != "sim_suite" &&
        options.workload != "train_counters" &&
        options.workload != "serve_loopback")
        usage("unknown workload '" + options.workload + "'");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    if (options.workDir.empty())
        usage("--work-dir is required");
    return options;
}

/** The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}. */
void
printResult(const Outcome &outcome, const Metrics &metrics,
            const std::vector<Declared> &declared)
{
    std::string line = "{\"correct\": ";
    line += outcome.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(outcome.attempted) +
            ", \"failed\": " + std::to_string(outcome.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const Declared &metric : declared) {
        const std::string &name = metric.name;
        if (!metrics.has(name))
            continue;
        const auto &[value, unit] = metrics.at(name);
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", value);
        line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
                number + ", \"unit\": \"" + unit + "\"}";
        first = false;
    }
    line += "}}";
    std::cout << line << std::endl;
}

} // namespace

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        errors.push_back(what);
}

std::uint32_t
fileCrc32(const std::string &path, std::uint64_t *bytes)
{
    std::ifstream in(path, std::ios::binary);
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (bytes != nullptr)
        *bytes = data.size();
    return crc32(data);
}

Fixture::~Fixture()
{
    stopServer();
}

void
Fixture::stopServer()
{
    if (server) {
        server->requestStop();
        server->wait();
        server.reset();
    }
}

void
setUp(Fixture &fixture, const std::string &root)
{
    {
        Span span("workload.load_specs");
        workload::reloadSuiteRegistry();
        fixture.specs = workload::specLikeSuite();
    }
    if (fixture.specs.size() != kSuiteSize ||
        workload::suiteSourceDescription().find(root) == std::string::npos)
        throw std::runtime_error("expected the " +
                                 std::to_string(kSuiteSize) +
                                 " committed specs under " + root +
                                 "/specs, got: " +
                                 workload::suiteSourceDescription());

    // The counter CSV: the whole suite at a tenth of the default
    // section length, about 10k rows.
    workload::RunnerOptions options;
    options.instructionsPerSection = kCounterSectionInstructions;
    std::vector<workload::SectionRecord> records;
    {
        Span span("sim.run_suite", "counters");
        records = workload::runSuite(fixture.specs, options);
    }
    {
        Span span("perf.sections_to_dataset");
        fixture.counters = perf::sectionsToDataset(records);
    }
    fixture.countersCsv = fixture.workDir + "/counters.csv";
    {
        Span span("data.write_csv");
        writeDatasetCsvFile(fixture.countersCsv, fixture.counters);
    }

    fixture.serveModel =
        std::make_unique<M5Prime>(treeOptionsFor(fixture.counters.size()));
    {
        Span span("ml.fit", "served model");
        fixture.serveModel->fit(fixture.counters);
    }
    fixture.serveModelPath = fixture.workDir + "/serve.m5";
    {
        Span span("ml.model_save");
        fixture.serveModel->saveFile(fixture.serveModelPath);
    }
    fixture.expected.resize(fixture.counters.size());
    for (std::size_t i = 0; i < fixture.counters.size(); ++i)
        fixture.expected[i] = fixture.serveModel->predict(
            fixture.counters.row(i));

    fixture.startServer();
}

void
Fixture::startServer()
{
    stopServer();
    Span span("serve.server_start");
    serve::ServerOptions options;
    options.modelPath = serveModelPath;
    options.listen = "127.0.0.1";
    options.port = 0;
    server = std::make_unique<serve::Server>(options);
    server->start();
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options options = parseArgs(argc, argv);
    const std::string root =
        std::filesystem::absolute(options.root).lexically_normal().string();
    std::filesystem::create_directories(options.workDir);
    setenv("MTPERF_SPEC_DIR", (root + "/specs").c_str(), 1);
    mtperf::setGlobalThreadCount(4);
    Trace::enable(options.trace);

    Metrics metrics;
    Outcome outcome;
    Declarations declared;
    try {
        declared = loadDeclarations(root);
        std::vector<double> setup_seconds;
        std::unique_ptr<Fixture> fixture;
        for (int i = 0; i < kSetups; ++i) {
            fixture.reset(); // stops the previous server
            fixture = std::make_unique<Fixture>();
            fixture->workDir = options.workDir;
            Span span("stage.setup");
            setUp(*fixture, root);
            setup_seconds.push_back(span.end());
        }
        metrics.set("setup_s", median(setup_seconds), "s");

        // The workload's own stage gets --seconds, spread over the
        // rounds; the other two run at a small fixed size each round.
        const std::string &w = options.workload;
        const double share = options.seconds / kRounds;
        const bool sim = w == "sim_suite";
        const bool ml = w == "train_counters";
        const bool srv = w == "serve_loopback";
        std::vector<Metrics> rounds(kRounds);
        for (int r = 0; r < kRounds; ++r) {
            const bool first = r == 0;
            runSimStage(*fixture, sim ? kSimScale : kSimSmokeScale,
                        sim ? StageBudget{share, 1, first}
                            : StageBudget{0.0, 1},
                        rounds[r], outcome);
            runMlStage(*fixture,
                       ml ? StageBudget{share, 3, first}
                          : StageBudget{kSideModelSeconds, 3},
                       rounds[r], outcome);
            ServePlan plan;
            if (!first)
                plan.searchSteps = 0; // one rate search per run
            if (srv) {
                plan.closedSeconds = 0.5 * share;
                plan.fixedRateSeconds = 0.3 * share;
                plan.searchStepSeconds = 0.1 * share;
                plan.probeOverhead = first;
            }
            if (!first)
                fixture->startServer();
            runServeStage(*fixture, plan, options.seed + r, rounds[r],
                          outcome);
        }
        fixture->stopServer();
        combineRounds(rounds, declared, metrics, outcome);
        metrics.set("peak_rss_mb", peakRssMiB(), "MiB");

        if (options.trace) {
            const std::vector<SpanRecord> spans = Trace::all();
            const auto self = selfSecondsByLayer(spans);
            for (const std::string &layer : kLayers) {
                const auto it = self.find(layer);
                metrics.set("trace.self_s." + layer,
                            it == self.end() ? 0.0 : it->second, "s");
            }
            metrics.set("trace.train_coverage",
                        childCoverage(spans, "stage.train"), "ratio");
            Trace::write(options.workDir + "/spans-" + w + ".json");
        }
    } catch (const std::exception &e) {
        outcome.errors.push_back(e.what());
        ++outcome.failed;
    }

    const std::vector<Declared> &printed =
        options.trace ? declared.perLayer : declared.endToEnd;
    for (const Declared &metric : printed) {
        if (outcome.correct() && !metrics.has(metric.name))
            outcome.errors.push_back("metric " + metric.name +
                                     " was not measured");
        else if (metrics.has(metric.name) &&
                 !std::isfinite(metrics.at(metric.name).first))
            outcome.errors.push_back("metric " + metric.name +
                                     " is not finite");
    }
    for (const std::string &error : outcome.errors)
        std::cerr << "perfbench: check failed: " << error << "\n";
    std::cout << "perfbench: workload " << options.workload << ", seed "
              << options.seed << ", trace " << options.trace << "\n";
    if (outcome.attempted == 0)
        outcome.attempted = 1;
    printResult(outcome, metrics, printed);
    return outcome.correct() ? 0 : 1;
}
