/**
 * @file
 * Tests for the benchmark's regression gate on committed perfbench
 * output (tests/data/benchdiff/). base.txt and head.txt are 10 runs
 * each of one build; every head_<case>.txt is head.txt with one field
 * changed, and traced_*.txt are one `--trace 1` pair. Covers each
 * verdict, every input that cannot be compared, the sealed verdict
 * JSON and crash-safe verdict writes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "common/checksum.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/sealed_json.h"
#include "perf/benchdiff.h"

namespace mtperf::perf {
namespace {

const std::string kRoot = MTPERF_REPO_ROOT;
const std::string kFixtures = kRoot + "/tests/data/benchdiff/";

const BenchDeclarations &
declarations()
{
    static const BenchDeclarations declared = readBenchDeclarations(
        kRoot + "/BENCHMARK.json", kRoot + "/perfbench/protocol.json");
    return declared;
}

std::string
fixture(const std::string &name)
{
    std::ifstream in(kFixtures + name);
    EXPECT_TRUE(in.good()) << name;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

BenchDiffReport
diffFixtures(const std::string &base, const std::string &head)
{
    return diffBenchFiles(kFixtures + base, kFixtures + head,
                          declarations());
}

const BenchMetricDiff &
metricNamed(const BenchDiffReport &report, const std::string &name)
{
    for (const BenchMetricDiff &m : report.metrics)
        if (m.declared.name == name)
            return m;
    ADD_FAILURE() << "metric " << name << " not in report";
    static const BenchMetricDiff none;
    return none;
}

/** The first @p runs runs (two lines each) of @p text. */
std::string
firstRuns(const std::string &text, std::size_t runs)
{
    std::istringstream in(text);
    std::string kept;
    std::string line;
    for (std::size_t i = 0; i < 2 * runs && std::getline(in, line); ++i)
        kept += line + "\n";
    return kept;
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaceFirst(std::string text, const std::string &from,
             const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

/** diffBenchRuns must refuse the input, saying @p why. */
void
expectUncomparable(const std::string &base, const std::string &head,
                   const std::string &why)
{
    try {
        diffBenchRuns(base, "base.txt", head, "head.txt",
                      declarations());
        ADD_FAILURE() << "compared; expected: " << why;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

TEST(BenchDiff, DeclarationsAreTheCommittedBenchmarks)
{
    std::size_t end_to_end = 0;
    std::size_t exact = 0;
    for (const DeclaredMetric &metric : declarations()) {
        end_to_end += metric.endToEnd ? 1 : 0;
        exact += metric.exact ? 1 : 0;
    }
    EXPECT_EQ(end_to_end, 11u);
    EXPECT_EQ(exact, 19u);
    const DeclaredMetric &train = declarations()[4];
    EXPECT_EQ(train.name, "train_s");
    EXPECT_FALSE(train.higherBetter);
    EXPECT_EQ(train.bound, 0.25);

    EXPECT_THROW(readBenchDeclarations(kRoot + "/perfbench/protocol.json",
                                       kRoot + "/perfbench/protocol.json"),
                 FatalError)
        << "protocol.json declares no metrics";
}

TEST(BenchDiff, SelfComparisonPasses)
{
    const BenchDiffReport report = diffFixtures("base.txt", "head.txt");
    EXPECT_TRUE(report.pass()) << formatBenchDiff(report);
    EXPECT_EQ(report.workload, "train_counters");
    EXPECT_EQ(report.trace, 0);
    EXPECT_EQ(report.pairs, 10u);
    EXPECT_EQ(report.metrics.size(), 11u);
    EXPECT_EQ(report.count(BenchVerdict::Regressed), 0u);
    EXPECT_EQ(report.count(BenchVerdict::Improved), 0u);
    EXPECT_EQ(metricNamed(report, "cv_mae").verdict,
              BenchVerdict::Identical);
}

TEST(BenchDiff, IdenticalSnapshotsPass)
{
    // The same runs on both sides: every pair ties, so nothing is won,
    // nothing moves and nothing gates.
    const std::string runs = fixture("base.txt");
    const BenchDiffReport report =
        diffBenchRuns(runs, "base", runs, "head", declarations());
    EXPECT_TRUE(report.pass()) << formatBenchDiff(report);
    EXPECT_EQ(report.metrics.size(), 11u);
    for (const BenchMetricDiff &m : report.metrics) {
        EXPECT_EQ(m.wins, 0u) << m.declared.name;
        EXPECT_EQ(m.change, 0.0) << m.declared.name;
        EXPECT_EQ(m.baseMedian, m.headMedian) << m.declared.name;
        EXPECT_NE(m.verdict, BenchVerdict::Regressed) << m.declared.name;
        EXPECT_NE(m.verdict, BenchVerdict::Improved) << m.declared.name;
        EXPECT_NE(m.verdict, BenchVerdict::Differs) << m.declared.name;
    }
}

TEST(BenchDiff, CommittedSnapshotsSelfComparePass)
{
    // Every committed fixture against itself, through the file reader:
    // only the fixture whose head runs are incorrect may fail.
    std::size_t compared = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(kFixtures)) {
        const std::string path = entry.path().string();
        const std::string name = entry.path().filename().string();
        const BenchDiffReport report =
            diffBenchFiles(path, path, declarations());
        EXPECT_EQ(report.pass(), name != "head_incorrect.txt")
            << name << "\n" << formatBenchDiff(report);
        EXPECT_EQ(report.headCorrect, name != "head_incorrect.txt")
            << name;
        EXPECT_FALSE(report.failedShareGrew()) << name;
        EXPECT_EQ(report.count(BenchVerdict::Regressed), 0u) << name;
        EXPECT_EQ(report.count(BenchVerdict::Differs), 0u) << name;
        EXPECT_EQ(report.count(BenchVerdict::Improved), 0u) << name;
        EXPECT_GT(report.metrics.size(), 3u) << name;
        ++compared;
    }
    EXPECT_EQ(compared, 10u);
}

TEST(BenchDiff, DerivedFixturesChangeOnlyTheirField)
{
    const std::string head = fixture("head.txt");
    const std::string value = R"(": \{"value": [^,]*)";
    for (const auto &[name, field] :
         {std::pair<std::string, std::string>{"head_regressed.txt",
                                              "\"train_s" + value},
          {"head_improved.txt", "\"sim_minstr_per_s" + value},
          {"head_unresolved.txt", "\"train_s" + value},
          {"head_cv_mae.txt", "\"cv_mae" + value},
          {"head_incorrect.txt", R"("correct": \w+)"},
          {"head_failed.txt", R"("failed": \d+)"}}) {
        const std::regex pattern(field);
        const std::string derived = fixture(name);
        EXPECT_NE(derived, head) << name;
        EXPECT_EQ(std::regex_replace(derived, pattern, "#"),
                  std::regex_replace(head, pattern, "#"))
            << name;
    }
}

TEST(BenchDiff, NineOfTenRegressionBeyondBoundFails)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_regressed.txt");
    EXPECT_FALSE(report.pass());
    const BenchMetricDiff &train = metricNamed(report, "train_s");
    EXPECT_EQ(train.verdict, BenchVerdict::Regressed);
    EXPECT_GT(train.change, train.declared.bound);
    const std::string table = formatBenchDiff(report);
    EXPECT_LT(table.find("\ntrain_s "), table.find("\nsetup_s "))
        << "the gating line leads:\n"
        << table;
    EXPECT_NE(table.find("FAIL: 1 regressed"), std::string::npos);
}

TEST(BenchDiff, TenOfTenBetterIsImproved)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_improved.txt");
    EXPECT_TRUE(report.pass());
    const BenchMetricDiff &sim = metricNamed(report, "sim_minstr_per_s");
    EXPECT_EQ(sim.verdict, BenchVerdict::Improved);
    EXPECT_EQ(sim.wins, 10u);
    EXPECT_GT(sim.headMedian - sim.baseMedian, sim.baseSpread);

    // The same third, lost instead, exceeds the 25% bound.
    const BenchDiffReport lost =
        diffFixtures("head_improved.txt", "base.txt");
    EXPECT_EQ(metricNamed(lost, "sim_minstr_per_s").verdict,
              BenchVerdict::Regressed);
    EXPECT_FALSE(lost.pass());
}

TEST(BenchDiff, FewerThanTenPairsIsNeverImproved)
{
    const BenchDiffReport report = diffBenchRuns(
        firstRuns(fixture("base.txt"), 9), "base.txt",
        firstRuns(fixture("head_improved.txt"), 9), "head.txt",
        declarations());
    const BenchMetricDiff &sim = metricNamed(report, "sim_minstr_per_s");
    EXPECT_EQ(sim.wins, 9u);
    EXPECT_EQ(sim.verdict, BenchVerdict::WithinBound);
}

TEST(BenchDiff, WideSpreadIsUnresolvedAndDoesNotGate)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_unresolved.txt");
    const BenchMetricDiff &train = metricNamed(report, "train_s");
    EXPECT_EQ(train.verdict, BenchVerdict::Unresolved);
    EXPECT_GT(train.headSpread, train.declared.bound * train.headMedian);
    EXPECT_TRUE(report.pass());
    EXPECT_NE(formatBenchDiff(report).find("1 unresolved"),
              std::string::npos);

    // Unless every head run beats every base run.
    const BenchDiffReport separated = diffBenchRuns(
        fixture("head_unresolved.txt"), "base",
        std::regex_replace(fixture("head.txt"),
                           std::regex(R"("train_s": \{"value": [^,]*)"),
                           R"("train_s": {"value": 0.001)"),
        "head", declarations());
    EXPECT_EQ(metricNamed(separated, "train_s").verdict,
              BenchVerdict::Improved);
}

TEST(BenchDiff, ExactMetricsGateOnAnyChange)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_cv_mae.txt");
    EXPECT_EQ(metricNamed(report, "cv_mae").verdict,
              BenchVerdict::Differs);
    EXPECT_EQ(report.count(BenchVerdict::Differs), 1u);
    EXPECT_FALSE(report.pass());
}

TEST(BenchDiff, IncorrectHeadRunFails)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_incorrect.txt");
    EXPECT_FALSE(report.headCorrect);
    EXPECT_EQ(report.count(BenchVerdict::Regressed), 0u);
    EXPECT_FALSE(report.pass());
    // An incorrect base run says nothing about head.
    EXPECT_TRUE(diffFixtures("head_incorrect.txt", "head.txt").pass());
}

TEST(BenchDiff, HigherHeadFailedShareFails)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_failed.txt");
    EXPECT_TRUE(report.headCorrect);
    EXPECT_TRUE(report.failedShareGrew());
    EXPECT_FALSE(report.pass());
    EXPECT_TRUE(diffFixtures("head_failed.txt", "head.txt").pass())
        << "a lower head share passes";
}

TEST(BenchDiff, TracedPairReportsPerLayerMetricsWithoutGating)
{
    const BenchDiffReport report =
        diffFixtures("traced_base.txt", "traced_head.txt");
    EXPECT_EQ(report.trace, 1);
    EXPECT_TRUE(report.pass()) << formatBenchDiff(report);
    for (const BenchMetricDiff &m : report.metrics)
        EXPECT_EQ(m.verdict, m.declared.exact ? BenchVerdict::Identical
                                              : BenchVerdict::Reported)
            << m.declared.name;
    EXPECT_EQ(report.count(BenchVerdict::Identical), 17u)
        << "every exact per-layer metric";
    // Even a per-layer time hundreds of times slower never gates.
    const BenchDiffReport slower = diffBenchRuns(
        fixture("traced_base.txt"), "base",
        std::regex_replace(fixture("traced_head.txt"),
                           std::regex(R"("ml.fit_s": \{"value": [^,]*)"),
                           R"("ml.fit_s": {"value": 9)"),
        "head", declarations());
    EXPECT_EQ(metricNamed(slower, "ml.fit_s").verdict,
              BenchVerdict::Reported);
    EXPECT_TRUE(slower.pass());
}

TEST(BenchDiff, InputThatCannotBePairedIsRefused)
{
    const std::string base = fixture("base.txt");
    const std::string head = fixture("head.txt");
    // Run counts must match and be nonzero.
    expectUncomparable(base, firstRuns(head, 9),
                       "base.txt:19: run 10 has no partner: base.txt "
                       "has 10 runs, head.txt has 9");
    expectUncomparable("", "", "base.txt: no perfbench runs");
    expectUncomparable(base, firstRuns(head, 1) + "perfbench: workload "
                                                  "train_counters, seed "
                                                  "2, trace 0\n",
                       "head.txt:3: run has no result line");
    // Each pair agrees on workload, seed and trace.
    expectUncomparable(base, replaceFirst(head, "seed 1,", "seed 99,"),
                       "head.txt:1: run 1 (train_counters, seed 99, "
                       "trace 0) does not pair with base.txt:1");
    expectUncomparable(base,
                       std::regex_replace(head,
                                          std::regex("train_counters"),
                                          "sim_suite"),
                       "does not pair");
    expectUncomparable(firstRuns(base, 1), fixture("traced_head.txt"),
                       "trace 1) does not pair");
    // Each file holds one workload and one trace mode.
    const std::string second = "workload train_counters, seed 2,";
    const std::string mixed = "workload sim_suite, seed 2,";
    expectUncomparable(replaceFirst(base, second, mixed),
                       replaceFirst(head, second, mixed),
                       "base.txt:3: workload sim_suite, trace 0 in a "
                       "file of workload train_counters, trace 0");
    const std::string traced =
        firstRuns(base, 1) + fixture("traced_base.txt");
    expectUncomparable(traced, traced,
                       "base.txt:3: workload train_counters, trace 1 "
                       "in a file of workload train_counters, trace 0");
    // Every line parses.
    expectUncomparable(base, replaceFirst(head, "}}}\n", "}}\n"),
                       "head.txt:2");
    for (const char *seed : {"seed one,", "seed 01,", "seed -1,",
                             "seed 99999999999999999999,"})
        expectUncomparable(replaceFirst(base, "seed 1,", seed), head,
                           "base.txt:1: expected a 'perfbench: "
                           "workload W, seed N, trace T' line");
    expectUncomparable(base,
                       replaceFirst(head, "\"failed\": 0",
                                    "\"failed\": -1"),
                       "head.txt:2: \"failed\" must be a count");
}

TEST(BenchDiff, MissingAndAddedMetrics)
{
    const std::string base = fixture("base.txt");
    const std::string head = fixture("head.txt");
    expectUncomparable(base,
                       replaceFirst(head, "\"train_s\"", "\"train_ms\""),
                       "head.txt:2: metric 'train_ms' is not declared "
                       "in BENCHMARK.json's end_to_end list");
    expectUncomparable(
        std::regex_replace(base,
                           std::regex(R"("train_s": \{[^}]*\}, )"), ""),
        head,
        "base.txt:2: declared end_to_end metric 'train_s' is missing");
}

TEST(BenchDiff, VerdictJsonIsSealedAndParseable)
{
    const BenchDiffReport report =
        diffFixtures("base.txt", "head_regressed.txt");
    const std::string json = benchDiffToJson(report);
    EXPECT_EQ(json.find('\n'), std::string::npos)
        << "no trailing newline: truncation must break the seal";

    // The crc32 member covers every byte before its own suffix.
    const std::size_t seal = json.rfind(",\"crc32\":");
    ASSERT_NE(seal, std::string::npos);
    const json::JsonValue doc = parseSealedJson(json, "verdict");
    EXPECT_EQ(doc.find("crc32")->unsignedIntegral(),
              crc32(json.substr(0, seal)));
    EXPECT_EQ(doc.find("mtperf_benchdiff")->unsignedIntegral(), 2u);
    EXPECT_FALSE(doc.find("pass")->boolean());
    EXPECT_EQ(doc.find("regressed")->unsignedIntegral(), 1u);
    EXPECT_EQ(doc.find("pairs")->unsignedIntegral(), 10u);
    EXPECT_EQ(doc.find("base")->string(), kFixtures + "base.txt");
    const json::JsonValue &train = doc.find("metrics")->array().at(4);
    EXPECT_EQ(train.find("name")->string(), "train_s");
    EXPECT_EQ(train.find("verdict")->string(), "regressed");
    EXPECT_EQ(train.find("bound")->number(), 0.25);

    std::string damaged = json;
    damaged[seal / 2] ^= 0x01;
    EXPECT_THROW(parseSealedJson(damaged, "verdict"), FatalError);
}

TEST(BenchDiff, WriteVerdictIsCrashSafeUnderFaultInjection)
{
    const std::string dir = testing::TempDir() + "/mtperf_benchdiff_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/verdict.json";
    const BenchDiffReport report = diffFixtures("base.txt", "head.txt");

    fault::configure("obs.flush:1:1");
    EXPECT_THROW(writeBenchDiffFile(path, report),
                 fault::InjectedFault);
    EXPECT_FALSE(std::filesystem::exists(path));
    fault::clear();

    writeBenchDiffFile(path, report);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, benchDiffToJson(report)) << "bytes match toJson";
    std::filesystem::remove_all(dir);
}

TEST(BenchDiff, MissingFileIsFatal)
{
    EXPECT_THROW(diffBenchFiles("/nonexistent/base.txt",
                                kFixtures + "head.txt", declarations()),
                 FatalError);
}

} // namespace
} // namespace mtperf::perf
