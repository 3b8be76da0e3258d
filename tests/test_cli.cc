/**
 * @file
 * Tests for the CLI argument parser and subcommands.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"

namespace mtperf::cli {
namespace {

// ---------------------------------------------------------------
// ArgParser
// ---------------------------------------------------------------

ArgParser
sampleParser()
{
    ArgParser parser;
    parser.addString("data", "", "input", /*required=*/true);
    parser.addDouble("scale", 1.5, "scale");
    parser.addSize("folds", 10, "folds");
    parser.addFlag("verbose", "flag");
    return parser;
}

TEST(ArgParser, DefaultsApplyWhenAbsent)
{
    ArgParser parser = sampleParser();
    parser.parse({"--data", "x.csv"});
    EXPECT_EQ(parser.getString("data"), "x.csv");
    EXPECT_DOUBLE_EQ(parser.getDouble("scale"), 1.5);
    EXPECT_EQ(parser.getSize("folds"), 10u);
    EXPECT_FALSE(parser.getFlag("verbose"));
    EXPECT_TRUE(parser.given("data"));
    EXPECT_FALSE(parser.given("scale"));
}

TEST(ArgParser, ValuesOverrideDefaults)
{
    ArgParser parser = sampleParser();
    parser.parse({"--data", "a.csv", "--scale", "0.25", "--folds", "5",
                  "--verbose"});
    EXPECT_DOUBLE_EQ(parser.getDouble("scale"), 0.25);
    EXPECT_EQ(parser.getSize("folds"), 5u);
    EXPECT_TRUE(parser.getFlag("verbose"));
}

TEST(ArgParser, ErrorsAreSpecific)
{
    EXPECT_THROW(sampleParser().parse({"--bogus", "1"}), UsageError);
    EXPECT_THROW(sampleParser().parse({"positional"}), UsageError);
    EXPECT_THROW(sampleParser().parse({"--data"}), UsageError);
    EXPECT_THROW(sampleParser().parse({}), UsageError); // missing --data
    EXPECT_THROW(
        sampleParser().parse({"--data", "x", "--scale", "abc"}),
        UsageError);
}

TEST(ArgParser, IntegerOptionsRejectSignsAndFractions)
{
    // "-1" must fail at parse time, not wrap around to a huge count.
    EXPECT_THROW(sampleParser().parse({"--data", "x", "--folds", "-1"}),
                 UsageError);
    EXPECT_THROW(
        sampleParser().parse({"--data", "x", "--folds", "2.5"}),
        UsageError);
    EXPECT_THROW(
        sampleParser().parse(
            {"--data", "x", "--folds", "99999999999999999999999"}),
        UsageError);
}

TEST(ArgParser, RangeValidatedGetters)
{
    ArgParser parser = sampleParser();
    parser.parse({"--data", "x", "--scale", "2.0", "--folds", "5"});
    EXPECT_DOUBLE_EQ(parser.getDouble("scale", 0.0, 10.0), 2.0);
    EXPECT_EQ(parser.getSize("folds", 2, 1000), 5u);
    EXPECT_THROW(parser.getDouble("scale", 0.0, 1.0), UsageError);
    EXPECT_THROW(parser.getSize("folds", 10, 1000), UsageError);
}

TEST(ArgParser, HelpTextMentionsEveryOption)
{
    const std::string help = sampleParser().helpText();
    for (const char *name : {"--data", "--scale", "--folds", "--verbose"})
        EXPECT_NE(help.find(name), std::string::npos) << name;
    EXPECT_NE(help.find("(required)"), std::string::npos);
}

// ---------------------------------------------------------------
// Subcommands (exercised end-to-end through temp files)
// ---------------------------------------------------------------

class CliCommandTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = testing::TempDir() + "/mtperf_cli_" +
               std::to_string(::getpid());
        std::filesystem::create_directories(dir_);
        csv_ = dir_ + "/sections.csv";
        model_ = dir_ + "/model.m5";
    }

    /** Simulate a tiny dataset once per test. */
    void
    simulate()
    {
        std::ostringstream out;
        ASSERT_EQ(cmdSimulate({"--out", csv_, "--scale", "0.02",
                               "--instructions", "2000"},
                              out),
                  0);
        ASSERT_TRUE(std::filesystem::exists(csv_));
    }

    void
    train()
    {
        std::ostringstream out;
        ASSERT_EQ(cmdTrain({"--data", csv_, "--out", model_}, out), 0);
        ASSERT_TRUE(std::filesystem::exists(model_));
    }

    std::string dir_, csv_, model_;
};

TEST_F(CliCommandTest, SimulateWritesLoadableCsv)
{
    simulate();
    std::ostringstream out;
    EXPECT_EQ(cmdCrossval({"--data", csv_, "--folds", "3"}, out), 0);
    EXPECT_NE(out.str().find("3-fold CV"), std::string::npos);
    EXPECT_NE(out.str().find("fold 3"), std::string::npos);
}

TEST_F(CliCommandTest, TrainPrintPredictAnalyzeRoundTrip)
{
    simulate();
    train();

    std::ostringstream print_out;
    EXPECT_EQ(cmdPrint({"--model", model_}, print_out), 0);
    EXPECT_NE(print_out.str().find("model tree (M5')"),
              std::string::npos);

    std::ostringstream predict_out;
    const std::string pred_csv = dir_ + "/pred.csv";
    EXPECT_EQ(cmdPredict({"--model", model_, "--data", csv_, "--out",
                          pred_csv},
                         predict_out),
              0);
    EXPECT_NE(predict_out.str().find("C="), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(pred_csv));

    std::ostringstream analyze_out;
    EXPECT_EQ(cmdAnalyze({"--model", model_, "--data", csv_},
                         analyze_out),
              0);
    EXPECT_NE(analyze_out.str().find("Performance analysis report"),
              std::string::npos);
}

TEST_F(CliCommandTest, TreeOptionFlagsReachTheLearner)
{
    simulate();
    std::ostringstream out;
    EXPECT_EQ(cmdTrain({"--data", csv_, "--out", model_,
                        "--min-instances", "10000"},
                       out),
              0);
    // A threshold larger than the dataset forces a single leaf.
    EXPECT_NE(out.str().find("model with 1 leaves"), std::string::npos);
}

TEST_F(CliCommandTest, WorkloadsListsSuiteAndSource)
{
    std::ostringstream out;
    EXPECT_EQ(cmdWorkloads({}, out), 0);
    EXPECT_NE(out.str().find("suite source:"), std::string::npos);
    EXPECT_NE(out.str().find("mcf_like"), std::string::npos);
    EXPECT_NE(out.str().find("sections"), std::string::npos);
}

TEST_F(CliCommandTest, WorkloadsExportFeedsSimulateWorkloadDir)
{
    const std::string spec_dir = dir_ + "/exported";
    std::ostringstream export_out;
    ASSERT_EQ(cmdWorkloads({"--export", spec_dir}, export_out), 0);
    EXPECT_NE(export_out.str().find("exported 17"), std::string::npos);

    std::ostringstream sim_out;
    EXPECT_EQ(cmdSimulate({"--workload-dir", spec_dir, "--out", csv_,
                           "--scale", "0.005", "--instructions",
                           "1000"},
                          sim_out),
              0);
    EXPECT_TRUE(std::filesystem::exists(csv_));
}

TEST_F(CliCommandTest, WorkloadsJsonRoundTripsThroughTheParser)
{
    std::ostringstream out;
    ASSERT_EQ(cmdWorkloads({"--json"}, out), 0);
    // Exactly one parseable document, nothing else on stdout: the
    // strict parser rejects any stray "suite source:" banner text.
    const json::JsonValue doc =
        json::parseJson(out.str(), "<workloads>");
    ASSERT_TRUE(doc.isObject());
    const json::JsonValue *source = doc.find("source");
    ASSERT_NE(source, nullptr);
    EXPECT_TRUE(source->isString());
    const json::JsonValue *workloads = doc.find("workloads");
    ASSERT_NE(workloads, nullptr);
    ASSERT_TRUE(workloads->isArray());
    EXPECT_EQ(workloads->array().size(), 17u);

    bool saw_mcf = false;
    for (const json::JsonValue &w : workloads->array()) {
        ASSERT_TRUE(w.isObject());
        // Canonical key order, machine-countable fields.
        ASSERT_EQ(w.members().size(), 5u);
        EXPECT_EQ(w.members()[0].first, "name");
        EXPECT_EQ(w.members()[1].first, "phases");
        EXPECT_EQ(w.members()[2].first, "sections");
        EXPECT_EQ(w.members()[3].first, "workingSetMinBytes");
        EXPECT_EQ(w.members()[4].first, "workingSetMaxBytes");
        EXPECT_TRUE(w.members()[1].second.isUnsignedIntegral());
        if (w.find("name")->string() == "mcf_like")
            saw_mcf = true;
    }
    EXPECT_TRUE(saw_mcf);

    // --json is a listing format; it cannot combine with --export.
    std::ostringstream both;
    EXPECT_EQ(runCommand("workloads",
                         {"--json", "--export", dir_ + "/exp"},
                         both),
              2);
}

TEST_F(CliCommandTest, SimulateCorunWiring)
{
    // The co-run flags validate as a pair...
    std::ostringstream a;
    EXPECT_EQ(runCommand("simulate",
                         {"--corun", "mcf_like,gcc_like", "--out",
                          csv_},
                         a),
              2);
    EXPECT_NE(a.str().find("--cores"), std::string::npos);
    std::ostringstream b;
    EXPECT_EQ(runCommand("simulate", {"--cores", "2", "--out", csv_},
                         b),
              2);
    EXPECT_NE(b.str().find("--corun"), std::string::npos);
    // ...each set must match the core count and name real workloads.
    std::ostringstream c;
    EXPECT_EQ(runCommand("simulate",
                         {"--cores", "2", "--corun", "mcf_like",
                          "--out", csv_},
                         c),
              2);
    std::ostringstream d;
    EXPECT_EQ(runCommand("simulate",
                         {"--cores", "2", "--corun",
                          "mcf_like,no_such_like", "--out", csv_},
                         d),
              2);
    EXPECT_NE(d.str().find("no workload named"), std::string::npos);

    // The happy path lands provenance columns in the CSV.
    std::ostringstream sim_out;
    ASSERT_EQ(cmdSimulate({"--cores", "2", "--corun",
                           "mcf_like,gcc_like", "--out", csv_,
                           "--scale", "0.01", "--instructions",
                           "1000"},
                          sim_out),
              0);
    std::ifstream in(csv_);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find(",core,corun_set"), std::string::npos);
}

TEST_F(CliCommandTest, GenworkloadIsDeterministicAndSimulatable)
{
    std::ostringstream a, b;
    ASSERT_EQ(cmdGenworkload({"--seed", "3"}, a), 0);
    ASSERT_EQ(cmdGenworkload({"--seed", "3"}, b), 0);
    EXPECT_EQ(a.str(), b.str());

    // The emitted document feeds straight back into simulate.
    const std::string spec_path = dir_ + "/gen.json";
    {
        std::ofstream out(spec_path, std::ios::binary);
        out << a.str();
    }
    std::ostringstream sim_out;
    EXPECT_EQ(cmdSimulate({"--workload-file", spec_path, "--out", csv_,
                           "--scale", "0.01", "--instructions",
                           "1000"},
                          sim_out),
              0);
    EXPECT_TRUE(std::filesystem::exists(csv_));

    // Multiple specs need a directory; stdout holds one document.
    std::ostringstream err_out;
    EXPECT_EQ(runCommand("genworkload", {"--count", "2"}, err_out), 2);
    EXPECT_NE(err_out.str().find("--out-dir"), std::string::npos);

    std::ostringstream dir_out;
    const std::string gen_dir = dir_ + "/fleet";
    EXPECT_EQ(cmdGenworkload({"--seed", "4", "--count", "3",
                              "--out-dir", gen_dir},
                             dir_out),
              0);
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(gen_dir))
        files += entry.path().extension() == ".json";
    EXPECT_EQ(files, 3u);
}

TEST_F(CliCommandTest, StackTakesNameOrSpecFileButNotBoth)
{
    std::ostringstream neither;
    EXPECT_EQ(runCommand("stack", {}, neither), 2);
    EXPECT_NE(neither.str().find("exactly one"), std::string::npos);

    std::ostringstream both;
    EXPECT_EQ(runCommand("stack",
                         {"--workload", "mcf_like", "--workload-file",
                          "x.json"},
                         both),
              2);

    std::ostringstream gen_out;
    ASSERT_EQ(cmdGenworkload({"--seed", "6"}, gen_out), 0);
    const std::string spec_path = dir_ + "/stack.json";
    {
        std::ofstream out(spec_path, std::ios::binary);
        out << gen_out.str();
    }
    std::ostringstream stack_out;
    EXPECT_EQ(cmdStack({"--workload-file", spec_path,
                        "--instructions", "20000"},
                       stack_out),
              0);
    EXPECT_NE(stack_out.str().find("CPI stack of gen_s6_0"),
              std::string::npos);
}

TEST_F(CliCommandTest, SimulateRejectsDuplicateWorkloadNames)
{
    const std::string spec_dir = dir_ + "/dup";
    std::filesystem::create_directories(spec_dir);
    std::ostringstream gen_out;
    ASSERT_EQ(cmdGenworkload({"--seed", "8", "--out-dir", spec_dir},
                             gen_out),
              0);
    // The same spec again via --workload-file duplicates the name.
    std::ostringstream sim_out;
    EXPECT_EQ(runCommand("simulate",
                         {"--workload-dir", spec_dir,
                          "--workload-file",
                          spec_dir + "/gen_s8_0.json", "--out", csv_},
                         sim_out),
              2);
    EXPECT_NE(sim_out.str().find("duplicate workload name"),
              std::string::npos);
}

TEST_F(CliCommandTest, RunCommandDispatchesAndCatchesErrors)
{
    std::ostringstream ok_out;
    EXPECT_EQ(runCommand("help", {}, ok_out), 0);
    EXPECT_NE(ok_out.str().find("usage: mtperf"), std::string::npos);

    std::ostringstream unknown_out;
    EXPECT_EQ(runCommand("frobnicate", {}, unknown_out), 2);

    // Bad data (a missing input file) is exit status 3 + message.
    std::ostringstream error_out;
    EXPECT_EQ(runCommand("print",
                         {"--model", "/nonexistent/model.m5"},
                         error_out),
              3);
    EXPECT_NE(error_out.str().find("error:"), std::string::npos);

    // A usage mistake (an unknown flag) is exit status 2.
    std::ostringstream usage_out;
    EXPECT_EQ(runCommand("print", {"--bogus", "x"}, usage_out), 2);
    EXPECT_NE(usage_out.str().find("usage error:"), std::string::npos);
}

TEST_F(CliCommandTest, NumericValidationExitsWithUsageError)
{
    // Out-of-range or malformed numeric arguments must fail cleanly
    // (exit 2) instead of wrapping around or aborting.
    const std::vector<std::vector<std::string>> bad_simulate = {
        {"--threads", "-1"},
        {"--threads", "4096"},
        {"--instructions", "0"},
        {"--scale", "0"},
        {"--scale", "-2"},
        {"--jitter", "1.5"},
        {"--jitter", "-0.1"},
    };
    for (const auto &args : bad_simulate) {
        std::ostringstream out;
        EXPECT_EQ(runCommand("simulate", args, out), 2)
            << args[0] << " " << args[1] << ": " << out.str();
        EXPECT_NE(out.str().find("usage error:"), std::string::npos);
    }

    std::ostringstream folds_out;
    EXPECT_EQ(runCommand("crossval",
                         {"--data", "x.csv", "--folds", "1"},
                         folds_out),
              2);

    simulate();
    // More folds than rows: caught before the learner sees it.
    std::ostringstream many_out;
    EXPECT_EQ(runCommand("crossval",
                         {"--data", csv_, "--folds", "999"},
                         many_out),
              2);
    EXPECT_NE(many_out.str().find("exceeds"), std::string::npos);
}

TEST_F(CliCommandTest, TreeOptionsAreCheckedWhenTheLearnerIsBuilt)
{
    // Rows too few for min-instances go straight to M5Rules' default
    // rule and a bag is fit only after the ensemble is built, so both
    // bad specs must fail before any tree is grown, naming the learner.
    simulate();
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"m5rules:smoothing-k=inf,min-instances=1000", "M5Rules"},
        {"m5rules:sd-fraction=nan", "M5Rules"},
        {"bagged-m5:smoothing-k=inf", "BaggedM5"},
    };
    for (const auto &[spec, learner] : bad) {
        std::ostringstream out;
        EXPECT_EQ(runCommand("crossval",
                             {"--data", csv_, "--folds", "5", "--model",
                              spec},
                             out),
                  3)
            << spec << ": " << out.str();
        EXPECT_NE(out.str().find(learner), std::string::npos)
            << spec << ": " << out.str();
    }
}

TEST_F(CliCommandTest, ServeValidatesNumericsBeforeLoadingTheModel)
{
    // Every bad numeric must exit 2 even though the model path does
    // not exist — eager validation runs before any file access.
    const std::vector<std::vector<std::string>> bad = {
        {"--port", "65536"},
        {"--port", "-1"},
        {"--timeout-ms", "-5"},
        {"--timeout-ms", "abc"},
    };
    for (auto args : bad) {
        args.insert(args.begin(), {"--model", "/nonexistent/model.m5"});
        std::ostringstream out;
        EXPECT_EQ(runCommand("serve", args, out), 2)
            << args[2] << " " << args[3] << ": " << out.str();
        EXPECT_NE(out.str().find("usage error:"), std::string::npos);
    }

    // The flags of the retired batch queue are unknown options, even
    // with values they once accepted.
    const std::vector<std::vector<std::string>> retired = {
        {"--batch-max", "4"},
        {"--queue-max", "8192"},
        {"--deadline-us", "5"},
    };
    for (auto args : retired) {
        args.insert(args.begin(), {"--model", "/nonexistent/model.m5"});
        std::ostringstream out;
        EXPECT_EQ(runCommand("serve", args, out), 2)
            << args[2] << " " << args[3] << ": " << out.str();
        EXPECT_NE(out.str().find("unknown option " + args[2]),
                  std::string::npos)
            << out.str();
    }

    // With valid numerics, the missing model is a data error (3).
    std::ostringstream out;
    EXPECT_EQ(runCommand("serve",
                         {"--model", "/nonexistent/model.m5",
                          "--port", "0"},
                         out),
              3);
}

TEST_F(CliCommandTest, PredictConnectValidation)
{
    simulate();
    // Neither --model nor --connect is a usage error,
    std::ostringstream neither_out;
    EXPECT_EQ(runCommand("predict", {"--data", csv_}, neither_out), 2);
    EXPECT_NE(neither_out.str().find("usage error:"),
              std::string::npos);
    // ...and so is giving both.
    std::ostringstream both_out;
    EXPECT_EQ(runCommand("predict",
                         {"--model", model_, "--connect", "127.0.0.1",
                          "--data", csv_},
                         both_out),
              2);
    // A refused connection is a data/environment error (3).
    std::ostringstream refused_out;
    EXPECT_EQ(runCommand("predict",
                         {"--connect", "127.0.0.1:1", "--data", csv_},
                         refused_out),
              3);
    // A malformed endpoint is a usage error.
    std::ostringstream bad_addr_out;
    EXPECT_EQ(runCommand("predict",
                         {"--connect", "127.0.0.1:notaport", "--data",
                          csv_},
                         bad_addr_out),
              2);
}

TEST_F(CliCommandTest, DiffComparesTwoRuns)
{
    simulate();
    train();
    // Reuse the same CSV for both sides: a null diff must succeed and
    // report a ~1x ratio with no priced movements.
    std::ostringstream out;
    EXPECT_EQ(cmdDiff({"--model", model_, "--before", csv_, "--after",
                       csv_},
                      out),
              0);
    EXPECT_NE(out.str().find("mean CPI"), std::string::npos);
    EXPECT_NE(out.str().find("1.00x"), std::string::npos);
}

TEST_F(CliCommandTest, AnalyzeJsonFlag)
{
    simulate();
    train();
    std::ostringstream out;
    EXPECT_EQ(cmdAnalyze({"--model", model_, "--data", csv_, "--json"},
                         out),
              0);
    EXPECT_EQ(out.str().front(), '{');
    EXPECT_NE(out.str().find("\"classes\""), std::string::npos);
}

TEST_F(CliCommandTest, StackReportsAttribution)
{
    std::ostringstream out;
    EXPECT_EQ(cmdStack({"--workload", "mcf_like", "--instructions",
                        "20000"},
                       out),
              0);
    EXPECT_NE(out.str().find("total CPI"), std::string::npos);
    EXPECT_NE(out.str().find("L2 miss"), std::string::npos);

    std::ostringstream error_out;
    EXPECT_EQ(runCommand("stack", {"--workload", "429.mcf"},
                         error_out),
              3);
}

// ---------------------------------------------------------------
// Observability: version, --trace-out/--metrics-out, --log-json
// ---------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST_F(CliCommandTest, VersionReportsBuildMetadata)
{
    std::ostringstream out;
    EXPECT_EQ(runCommand("version", {}, out), 0);
    const std::string text = out.str();
    EXPECT_NE(text.find("mtperf "), std::string::npos);
    for (const char *field : {"version ", "git ", "compiler ",
                              "build-type "})
        EXPECT_NE(text.find(field), std::string::npos) << field;
    // The usage text must advertise the command.
    std::ostringstream help_out;
    runCommand("help", {}, help_out);
    EXPECT_NE(help_out.str().find("version"), std::string::npos);
}

TEST_F(CliCommandTest, SimulateEmitsTraceWithPipelineSpans)
{
    const std::string trace = dir_ + "/simulate_trace.json";
    std::filesystem::remove(trace);
    std::ostringstream out;
    EXPECT_EQ(runCommand("simulate",
                         {"--out", csv_, "--scale", "0.02",
                          "--instructions", "2000", "--trace-out",
                          trace},
                         out),
              0);
    EXPECT_NE(out.str().find("trace written to"), std::string::npos);

    const std::string json = slurp(trace);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("sim.workload"), std::string::npos);
    EXPECT_NE(json.find("sim.collect"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(CliCommandTest, TrainEmitsTraceAndMetricsDumps)
{
    simulate();
    const std::string trace = dir_ + "/train_trace.json";
    const std::string metrics = dir_ + "/train_metrics.json";
    std::filesystem::remove(trace);
    std::filesystem::remove(metrics);

    std::ostringstream out;
    EXPECT_EQ(runCommand("train",
                         {"--data", csv_, "--out", model_,
                          "--trace-out", trace, "--metrics-out",
                          metrics},
                         out),
              0);
    EXPECT_NE(out.str().find("trace written to"), std::string::npos);
    EXPECT_NE(out.str().find("metrics written to"), std::string::npos);

    // The trace shows the tree-build phases the issue promises.
    const std::string trace_json = slurp(trace);
    for (const char *span : {"tree.grow", "tree.build_models",
                             "tree.prune"})
        EXPECT_NE(trace_json.find(span), std::string::npos) << span;

    // The metrics dump carries the tree counters from the same run.
    const std::string metrics_json = slurp(metrics);
    EXPECT_NE(metrics_json.find("\"counters\""), std::string::npos);
    EXPECT_NE(metrics_json.find("\"histograms\""), std::string::npos);
    for (const char *name : {"tree.fits", "tree.leaves", "tree.nodes"})
        EXPECT_NE(metrics_json.find(name), std::string::npos) << name;
}

TEST_F(CliCommandTest, ObsFlushFaultBecomesExitThreeAndLeavesNoFile)
{
    simulate();
    const std::string metrics = dir_ + "/fault_metrics.json";
    std::filesystem::remove(metrics);

    std::ostringstream out;
    EXPECT_EQ(runCommand("train",
                         {"--data", csv_, "--out", model_,
                          "--metrics-out", metrics, "--fault-spec",
                          "obs.flush:1:1"},
                         out),
              3);
    // Crash-safe: a failed dump leaves no partial file behind.
    EXPECT_FALSE(std::filesystem::exists(metrics));
    // The command itself succeeded: its model artifact is intact.
    EXPECT_TRUE(std::filesystem::exists(model_));
    fault::clear();
}

TEST_F(CliCommandTest, LogJsonMakesEveryStderrLineAnObject)
{
    testing::internal::CaptureStderr();
    std::ostringstream out;
    const int status = runCommand("simulate",
                                  {"--out", csv_, "--scale", "0.02",
                                   "--instructions", "2000",
                                   "--log-json"},
                                  out);
    const std::string captured =
        testing::internal::GetCapturedStderr();
    setLogFormat(LogFormat::Text); // do not leak into later tests
    ASSERT_EQ(status, 0);

    std::istringstream lines(captured);
    std::string line;
    std::size_t seen = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        ++seen;
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"level\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"component\":\""), std::string::npos)
            << line;
        EXPECT_NE(line.find("\"msg\":\""), std::string::npos) << line;
    }
    EXPECT_GT(seen, 0u) << "simulate should log progress lines";
}

TEST_F(CliCommandTest, PredictRejectsSchemaMismatch)
{
    simulate();
    train();
    const std::string other_csv = dir_ + "/other.csv";
    {
        std::ofstream out(other_csv);
        out << "foo,CPI,tag\n1,2,x\n";
    }
    std::ostringstream out;
    EXPECT_EQ(runCommand("predict",
                         {"--model", model_, "--data", other_csv},
                         out),
              3);
    EXPECT_NE(out.str().find("schema"), std::string::npos);
}

TEST_F(CliCommandTest, BenchdiffExitCodes)
{
    // benchdiff reads BENCHMARK.json and perfbench/protocol.json from
    // the working directory, the checkout root perfbench runs in.
    const std::filesystem::path cwd = std::filesystem::current_path();
    const std::string root = MTPERF_REPO_ROOT;
    const std::string base = "tests/data/benchdiff/base.txt";
    const std::string head = "tests/data/benchdiff/head.txt";
    const std::string verdict = dir_ + "/verdict.json";
    std::filesystem::current_path(root);

    std::ostringstream out;
    EXPECT_EQ(runCommand("benchdiff", {base, head}, out), 0);
    EXPECT_NE(out.str().find("PASS: 0 regressed"), std::string::npos)
        << out.str();
    EXPECT_EQ(runCommand("benchdiff", {base}, out), 2);
    EXPECT_EQ(runCommand("benchdiff", {base, head, "--json"}, out), 2);
    EXPECT_EQ(runCommand("benchdiff", {base, dir_ + "/none.txt"}, out),
              3);
    EXPECT_EQ(runCommand("benchdiff", {base, "BENCHMARK.json"}, out), 3);
    EXPECT_EQ(runCommand("benchdiff",
                         {base, "tests/data/benchdiff/head_regressed.txt",
                          "--verdict-out", verdict},
                         out),
              kExitBenchRegression);
    std::ifstream in(verdict);
    const std::string sealed((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_NE(sealed.find("\"pass\":false"), std::string::npos);

    // Outside a checkout there is no benchmark to judge by.
    std::filesystem::current_path(dir_);
    std::ostringstream elsewhere;
    EXPECT_EQ(runCommand("benchdiff",
                         {root + "/" + base, root + "/" + head},
                         elsewhere),
              3);
    EXPECT_NE(elsewhere.str().find("BENCHMARK.json"), std::string::npos);
    std::filesystem::current_path(cwd);
}

} // namespace
} // namespace mtperf::cli
