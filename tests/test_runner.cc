/**
 * @file
 * Tests for sectioned workload execution and parameter jitter.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "uarch/event_counters.h"
#include "workload/runner.h"
#include "workload/spec_suite.h"

namespace mtperf::workload {
namespace {

WorkloadSpec
tinyWorkload()
{
    PhaseParams a;
    a.name = "alpha";
    a.workingSetBytes = 64 * 1024;
    PhaseParams b;
    b.name = "beta";
    b.workingSetBytes = 8 * 1024 * 1024;
    b.branchEntropy = 0.2;
    return {"tiny", {{a, 3}, {b, 2}}};
}

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.instructionsPerSection = 2000;
    return options;
}

TEST(Runner, ProducesOneRecordPerSection)
{
    const auto records = runWorkload(tinyWorkload(), fastOptions());
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].phase, "alpha");
    EXPECT_EQ(records[3].phase, "beta");
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].workload, "tiny");
        EXPECT_EQ(records[i].sectionIndex, i);
        EXPECT_EQ(records[i].counters.instRetired, 2000u);
        EXPECT_GT(records[i].counters.cycles, 0u);
    }
}

TEST(Runner, SectionScaleMultipliesBudgets)
{
    RunnerOptions options = fastOptions();
    options.sectionScale = 2.0;
    EXPECT_EQ(runWorkload(tinyWorkload(), options).size(), 10u);
    options.sectionScale = 0.4;
    // 3 * 0.4 rounds to 1, 2 * 0.4 rounds to 1.
    EXPECT_EQ(runWorkload(tinyWorkload(), options).size(), 2u);
}

TEST(Runner, DeterministicForSeed)
{
    const auto a = runWorkload(tinyWorkload(), fastOptions());
    const auto b = runWorkload(tinyWorkload(), fastOptions());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (const auto &field : uarch::counterFields())
            EXPECT_EQ(a[i].counters.*(field.member),
                      b[i].counters.*(field.member))
                << field.name << " at section " << i;
}

TEST(Runner, SeedChangesData)
{
    RunnerOptions other = fastOptions();
    other.seed = 777;
    const auto a = runWorkload(tinyWorkload(), fastOptions());
    const auto b = runWorkload(tinyWorkload(), other);
    bool any_difference = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_difference |= a[i].counters.cycles != b[i].counters.cycles;
    EXPECT_TRUE(any_difference);
}

TEST(Runner, JitterCreatesSectionVariation)
{
    WorkloadSpec spec;
    PhaseParams p;
    p.name = "only";
    spec.name = "jittered";
    spec.phases.push_back({p, 10});

    RunnerOptions no_jitter = fastOptions();
    no_jitter.paramJitter = 0.0;
    RunnerOptions jitter = fastOptions();
    jitter.paramJitter = 0.3;

    auto spread = [](const std::vector<SectionRecord> &records) {
        std::uint64_t lo = ~0ULL, hi = 0;
        for (const auto &r : records) {
            lo = std::min(lo, r.counters.cycles);
            hi = std::max(hi, r.counters.cycles);
        }
        return hi - lo;
    };
    EXPECT_GT(spread(runWorkload(spec, jitter)),
              spread(runWorkload(spec, no_jitter)));
}

TEST(Runner, PhaseChangeShowsUpInCounters)
{
    // alpha (cache-resident WS) sections must have far fewer L2
    // misses than beta (8 MB WS) sections once both are warm: compare
    // the last section of each phase with long enough sections to
    // amortize cold-start effects.
    RunnerOptions options = fastOptions();
    options.instructionsPerSection = 20000;
    const auto records = runWorkload(tinyWorkload(), options);
    const auto alpha_miss = records[2].counters.l2LineMiss;
    const auto beta_miss = records[4].counters.l2LineMiss;
    EXPECT_GT(beta_miss, alpha_miss * 3 + 10);
}

TEST(Runner, SuiteConcatenatesWorkloads)
{
    WorkloadSpec w1 = tinyWorkload();
    WorkloadSpec w2 = tinyWorkload();
    w2.name = "tiny2";
    const auto records = runSuite({w1, w2}, fastOptions());
    ASSERT_EQ(records.size(), 10u);
    EXPECT_EQ(records[0].workload, "tiny");
    EXPECT_EQ(records[5].workload, "tiny2");
    // Section indices restart per workload.
    EXPECT_EQ(records[5].sectionIndex, 0u);
}

/** The process-wide decode-cache counters a suite run moved. */
struct DecodeDelta
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

DecodeDelta
decodeCountsOfSuiteRun(const std::vector<WorkloadSpec> &suite,
                       const RunnerOptions &options,
                       std::size_t *sections)
{
    obs::Counter &lookups = obs::counter("decode.cache_lookups");
    obs::Counter &hits = obs::counter("decode.cache_hits");
    obs::Counter &misses = obs::counter("decode.cache_misses");
    const DecodeDelta before{lookups.value(), hits.value(), misses.value()};
    *sections = runSuite(suite, options).size();
    return {lookups.value() - before.lookups, hits.value() - before.hits,
            misses.value() - before.misses};
}

TEST(Runner, SuiteDecodeAccountingIsExactAtAnyThreadCount)
{
    // More workloads than threads, so several decoders publish
    // concurrently from pool workers.
    std::vector<WorkloadSpec> suite;
    for (int i = 0; i < 6; ++i) {
        suite.push_back(tinyWorkload());
        suite.back().name = "tiny" + std::to_string(i);
    }
    RunnerOptions options = fastOptions();
    // 2 sections per workload at 40,000 instructions: each decoder
    // crosses one publish batch and publishes the rest on destruction.
    options.sectionScale = 0.4;
    options.instructionsPerSection = 40000;

    std::size_t serial_sections = 0, parallel_sections = 0;
    setGlobalThreadCount(1);
    const DecodeDelta serial =
        decodeCountsOfSuiteRun(suite, options, &serial_sections);
    setGlobalThreadCount(4);
    const DecodeDelta parallel =
        decodeCountsOfSuiteRun(suite, options, &parallel_sections);
    setGlobalThreadCount(0);

    ASSERT_EQ(serial_sections, suite.size() * 2);
    ASSERT_EQ(parallel_sections, serial_sections);
    const std::uint64_t instructions =
        serial_sections * options.instructionsPerSection;
    for (const DecodeDelta &d : {serial, parallel}) {
        EXPECT_EQ(d.lookups, instructions);
        EXPECT_EQ(d.hits + d.misses, d.lookups);
    }
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.misses, serial.misses);
}

TEST(Runner, InvalidOptionsThrow)
{
    RunnerOptions bad = fastOptions();
    bad.instructionsPerSection = 0;
    EXPECT_THROW(runWorkload(tinyWorkload(), bad), FatalError);

    WorkloadSpec empty;
    empty.name = "empty";
    EXPECT_THROW(runWorkload(empty, fastOptions()), FatalError);
}

TEST(JitterPhase, ZeroJitterIsIdentity)
{
    Rng rng(1);
    const PhaseParams p = tinyWorkload().phases[0].params;
    const PhaseParams q = jitterPhase(p, 0.0, rng);
    EXPECT_EQ(q.loadFrac, p.loadFrac);
    EXPECT_EQ(q.workingSetBytes, p.workingSetBytes);
}

TEST(JitterPhase, StaysWithinRelativeBounds)
{
    Rng rng(2);
    PhaseParams p;
    p.loadFrac = 0.3;
    p.workingSetBytes = 1 << 20;
    for (int i = 0; i < 200; ++i) {
        const PhaseParams q = jitterPhase(p, 0.2, rng);
        EXPECT_NO_THROW(q.validate());
        EXPECT_GE(q.loadFrac, 0.3 * 0.8 - 1e-12);
        EXPECT_LE(q.loadFrac, 0.3 * 1.2 + 1e-12);
        EXPECT_GE(q.workingSetBytes, (1u << 20) * 0.8 - 1);
        EXPECT_LE(q.workingSetBytes, (1u << 20) * 1.2 + 1);
    }
}

TEST(JitterPhase, RenormalizesOverfullMix)
{
    Rng rng(3);
    PhaseParams p;
    p.loadFrac = 0.5;
    p.storeFrac = 0.3;
    p.branchFrac = 0.2;
    for (int i = 0; i < 100; ++i) {
        const PhaseParams q = jitterPhase(p, 0.3, rng);
        EXPECT_LE(q.loadFrac + q.storeFrac + q.branchFrac +
                      q.fpAddFrac + q.fpMulFrac + q.fpDivFrac +
                      q.intMulFrac,
                  1.0 + 1e-9);
    }
}

TEST(JitterPhase, RescaledMixNeverRoundsAboveOne)
{
    // At seed 208 a bwaves_like section jitters to a mix whose 1/sum
    // rescale alone still adds up to 1.0000000000000002, which
    // validate() rejects, aborting the whole run.
    RunnerOptions options;
    options.seed = 208;
    options.instructionsPerSection = 50;
    const WorkloadSpec spec = suiteWorkload("bwaves_like");
    EXPECT_EQ(runWorkload(spec, options).size(), spec.totalSections());
}

} // namespace
} // namespace mtperf::workload
