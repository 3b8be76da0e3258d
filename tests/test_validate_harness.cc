/**
 * @file
 * Tests for the validation harness: a clean simulator passes every
 * oracle bound, the outcome is identical at any thread count, an
 * injected accounting bug is caught and named, and the obs counters
 * obey their invariant.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "uarch/event_counters.h"
#include "validate/harness.h"
#include "validate/oracle.h"

namespace mtperf::validate {
namespace {

ValidateOptions
fastOptions()
{
    ValidateOptions options;
    // Deliberately below kChasePairMinInstructions: the fast tests
    // exercise the five solo families; the pair has its own tests.
    options.instructions = 20000;
    options.seed = 42;
    return options;
}

ValidateOptions
steadyStateOptions()
{
    ValidateOptions options;
    options.instructions = kChasePairMinInstructions;
    options.seed = 42;
    return options;
}

class ValidateHarnessTest : public testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

TEST_F(ValidateHarnessTest, CleanSimulatorPassesEveryBound)
{
    const ValidateReport report = runValidation(fastOptions());
    EXPECT_EQ(report.workloads.size(), 5u);
    EXPECT_EQ(report.checked(),
              5u * uarch::kNumEventCounters);
    EXPECT_EQ(report.failed(), 0u) << driftReportToJson(report);
    EXPECT_TRUE(report.passed());
    for (const WorkloadValidation &w : report.workloads)
        EXPECT_EQ(w.counters.size(), uarch::kNumEventCounters)
            << w.workload;
}

TEST_F(ValidateHarnessTest, ReportIsIdenticalAtAnyThreadCount)
{
    setGlobalThreadCount(1);
    const std::string serial =
        driftReportToJson(runValidation(fastOptions()));
    setGlobalThreadCount(4);
    const std::string parallel =
        driftReportToJson(runValidation(fastOptions()));
    EXPECT_EQ(serial, parallel);
}

TEST_F(ValidateHarnessTest, InjectedCounterBugIsCaughtAndNamed)
{
    // The hook doubles a measured counter — one spurious increment
    // per real event, the classic accounting off-by-one.
    ValidateOptions options = fastOptions();
    options.injectCounterBug = "dtlbLdMiss";
    const ValidateReport report = runValidation(options);
    EXPECT_FALSE(report.passed());
    bool named = false;
    for (const WorkloadValidation &w : report.workloads) {
        for (const CounterCheck &c : w.counters) {
            if (!c.pass) {
                EXPECT_EQ(c.counter, "dtlbLdMiss")
                    << "collateral drift in " << w.workload;
                named = true;
            }
        }
    }
    EXPECT_TRUE(named);

    // lcpStalls is pinned [N, N] by the lcp family, so the doubled
    // count is off by exactly N.
    options.injectCounterBug = "lcpStalls";
    const ValidateReport lcp = runValidation(options);
    EXPECT_EQ(lcp.failed(), 1u);
}

TEST_F(ValidateHarnessTest, ChasePairRidesAlongAtSteadyStateLength)
{
    const ValidateReport report = runValidation(steadyStateOptions());
    ASSERT_EQ(report.workloads.size(), 7u);
    EXPECT_EQ(report.failed(), 0u) << driftReportToJson(report);

    // The two pair lanes trail the solo sweep, and each must show
    // real contention: nonzero shared misses on BOTH cores...
    for (std::size_t i = 5; i < 7; ++i) {
        const WorkloadValidation &w = report.workloads[i];
        EXPECT_EQ(w.family, "chase_pair") << w.workload;
        for (const CounterCheck &c : w.counters) {
            if (c.counter == "l2SharedMisses" ||
                c.counter == "l2OccupancyEvictedByOther" ||
                c.counter == "prefetchCancellations") {
                EXPECT_GT(c.actual, 0u)
                    << w.workload << " " << c.counter;
            }
        }
    }
    // ...while the same chase shape run solo pins all three at zero.
    const WorkloadValidation &solo = report.workloads[2];
    ASSERT_EQ(solo.family, "chase");
    for (const CounterCheck &c : solo.counters) {
        if (c.counter == "l2SharedMisses" ||
            c.counter == "l2OccupancyEvictedByOther" ||
            c.counter == "prefetchCancellations") {
            EXPECT_EQ(c.actual, 0u) << c.counter;
        }
    }
}

TEST_F(ValidateHarnessTest, InjectedContentionBugIsCaughtByThePair)
{
    ValidateOptions options = steadyStateOptions();
    options.injectCounterBug = "l2SharedMisses";
    const ValidateReport report = runValidation(options);
    EXPECT_FALSE(report.passed());
    std::size_t drifted = 0;
    for (const WorkloadValidation &w : report.workloads) {
        for (const CounterCheck &c : w.counters) {
            if (c.pass)
                continue;
            EXPECT_EQ(c.counter, "l2SharedMisses") << w.workload;
            EXPECT_EQ(w.family, "chase_pair") << w.workload;
            ++drifted;
        }
    }
    // Both lanes catch the doubling; no solo family drifts (their
    // zeros double to zero).
    EXPECT_EQ(drifted, 2u);
}

TEST_F(ValidateHarnessTest, UnknownInjectNameIsAUsageError)
{
    ValidateOptions options = fastOptions();
    options.injectCounterBug = "noSuchCounter";
    EXPECT_THROW(runValidation(options), UsageError);
}

TEST_F(ValidateHarnessTest, UnloadableOracleDirIsFatal)
{
    ValidateOptions options = fastOptions();
    options.oracleDir = testing::TempDir() + "/no_such_oracle_dir";
    EXPECT_THROW(runValidation(options), FatalError);
}

TEST_F(ValidateHarnessTest, ObsCountersBalanceAndInvariantHolds)
{
    const std::uint64_t checked_before =
        obs::counter("validate.counters_checked").value();
    const std::uint64_t passed_before =
        obs::counter("validate.counters_passed").value();
    const std::uint64_t failed_before =
        obs::counter("validate.counters_failed").value();

    const ValidateReport report = runValidation(fastOptions());

    const std::uint64_t checked =
        obs::counter("validate.counters_checked").value() -
        checked_before;
    const std::uint64_t passed =
        obs::counter("validate.counters_passed").value() -
        passed_before;
    const std::uint64_t failed =
        obs::counter("validate.counters_failed").value() -
        failed_before;
    EXPECT_EQ(checked, report.checked());
    EXPECT_EQ(failed, report.failed());
    EXPECT_EQ(checked, passed + failed);
    EXPECT_TRUE(obs::validateInvariants().empty());
}

} // namespace
} // namespace mtperf::validate
