/**
 * @file
 * Tests for the analytic counter oracles: hand-computed expected
 * counts per family over the embedded specs/oracle/ suite,
 * classification of (and rejection of) spec shapes, and a property
 * test that generator-minted chase phases stay inside the chase
 * bounds when simulated.
 */

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "uarch/core.h"
#include "uarch/event_counters.h"
#include "validate/oracle.h"
#include "workload/spec_gen.h"
#include "workload/spec_io.h"
#include "workload/stream_gen.h"

namespace mtperf::validate {
namespace {

using workload::PhaseParams;
using workload::PhaseSpec;
using workload::WorkloadSpec;

constexpr std::uint64_t kN = 200000;

const uarch::CoreConfig &
config()
{
    static const uarch::CoreConfig c = uarch::CoreConfig::core2Like();
    return c;
}

std::map<std::string, CounterBound>
boundsByName(const WorkloadSpec &spec, std::uint64_t n)
{
    std::map<std::string, CounterBound> map;
    for (CounterBound &b : oracleBounds(spec, config(), n))
        map[b.counter] = b;
    return map;
}

std::vector<WorkloadSpec>
oracleSuite()
{
    return workload::loadEmbeddedSpecs(workload::embeddedOracleSpecs());
}

WorkloadSpec
suiteSpec(OracleFamily family)
{
    for (WorkloadSpec &spec : oracleSuite()) {
        if (classifyOracleSpec(spec) == family)
            return spec;
    }
    ADD_FAILURE() << "no suite spec for family "
                  << familyName(family);
    return {};
}

// ---------------------------------------------------------------
// Suite shape and classification
// ---------------------------------------------------------------

TEST(OracleSuite, OneWorkloadPerFamilyAllBoundsComplete)
{
    const auto suite = oracleSuite();
    ASSERT_EQ(suite.size(), 5u);
    std::vector<OracleFamily> families;
    for (const WorkloadSpec &spec : suite) {
        families.push_back(classifyOracleSpec(spec));
        const auto bounds = oracleBounds(spec, config(), kN);
        // Every EventCounters field bounded, in declaration order.
        ASSERT_EQ(bounds.size(), uarch::kNumEventCounters);
        const auto &fields = uarch::counterFields();
        for (std::size_t i = 0; i < bounds.size(); ++i) {
            EXPECT_EQ(bounds[i].counter, fields[i].name);
            EXPECT_LE(bounds[i].lo, bounds[i].expected);
            EXPECT_LE(bounds[i].expected, bounds[i].hi);
        }
    }
    // Filename order, which is also the drift report's order.
    EXPECT_EQ(families,
              (std::vector<OracleFamily>{
                  OracleFamily::BranchLadder, OracleFamily::BranchNoise,
                  OracleFamily::Chase, OracleFamily::Lcp,
                  OracleFamily::Stride}));
}

TEST(OracleClassify, RejectsUnanalyzableSpecs)
{
    // Any store traffic breaks the "no LSQ interactions" premise.
    WorkloadSpec stores = suiteSpec(OracleFamily::Chase);
    stores.phases[0].params.loadFrac = 0.9;
    stores.phases[0].params.storeFrac = 0.1;
    EXPECT_THROW(classifyOracleSpec(stores), UsageError);

    // Multi-phase specs have no single closed form.
    WorkloadSpec phased = suiteSpec(OracleFamily::Lcp);
    phased.phases.push_back(phased.phases[0]);
    EXPECT_THROW(classifyOracleSpec(phased), UsageError);

    // A chase working set near cache capacity voids the
    // capacity-ratio argument: classification may pass but the
    // bounds must refuse.
    WorkloadSpec small = suiteSpec(OracleFamily::Chase);
    small.phases[0].params.workingSetBytes = 8 * 1024 * 1024;
    EXPECT_THROW(oracleBounds(small, config(), kN), UsageError);
}

// ---------------------------------------------------------------
// Hand-computed expected counts (DESIGN.md section 13 derivations)
// ---------------------------------------------------------------

TEST(OracleBounds, LcpStallsEqualInstructionsExactly)
{
    const auto b = boundsByName(suiteSpec(OracleFamily::Lcp), kN);
    EXPECT_EQ(b.at("lcpStalls").lo, double(kN));
    EXPECT_EQ(b.at("lcpStalls").hi, double(kN));
    EXPECT_EQ(b.at("instRetired").lo, double(kN));
    EXPECT_EQ(b.at("instRetired").hi, double(kN));
    // Fetch-serialized: the 6-cycle LCP bubble exceeds the width, so
    // every instruction costs at least the bubble.
    EXPECT_GE(b.at("cycles").lo, 6.0 * double(kN));
    EXPECT_EQ(b.at("brRetired").hi, 0.0);
    EXPECT_EQ(b.at("instLoads").hi, 0.0);
}

TEST(OracleBounds, LadderNeverMispredicts)
{
    // All predictor tables initialize weakly-taken and only ever see
    // taken outcomes, so the count is exactly zero.
    const auto b =
        boundsByName(suiteSpec(OracleFamily::BranchLadder), kN);
    EXPECT_EQ(b.at("brMispredicted").lo, 0.0);
    EXPECT_EQ(b.at("brMispredicted").hi, 0.0);
    EXPECT_EQ(b.at("brRetired").lo, double(kN));
    EXPECT_EQ(b.at("brRetired").hi, double(kN));
}

TEST(OracleBounds, NoiseMispredictsAreBinomial)
{
    // Entropy-1 outcomes are independent fair coins no predictor can
    // beat or lose to: Binomial(N, 1/2), five sigma plus slack.
    const auto b =
        boundsByName(suiteSpec(OracleFamily::BranchNoise), kN);
    const double expected = double(kN) / 2.0;
    const double slack = 5.0 * std::sqrt(double(kN) * 0.25) + 16.0;
    EXPECT_DOUBLE_EQ(b.at("brMispredicted").expected, expected);
    EXPECT_DOUBLE_EQ(b.at("brMispredicted").lo, expected - slack);
    EXPECT_DOUBLE_EQ(b.at("brMispredicted").hi, expected + slack);
}

TEST(OracleBounds, StrideMissesEveryLineEverySeventhLineEveryPage)
{
    const auto b = boundsByName(suiteSpec(OracleFamily::Stride), kN);
    // Stride == line size, no L1D prefetch: every load opens a line.
    EXPECT_EQ(b.at("l1dLineMiss").lo, double(kN));
    EXPECT_EQ(b.at("l1dLineMiss").hi, double(kN));
    // L2 next-line prefetch degree 6: one demand miss per 7 lines.
    EXPECT_NEAR(b.at("l2LineMiss").expected, double(kN) / 7.0, 1.0);
    // One DTLB fill per 4096-byte page = per 64 loads.
    EXPECT_NEAR(b.at("dtlbLdMiss").expected, double(kN) / 64.0, 2.0);
    EXPECT_NEAR(b.at("dtlbAnyMiss").expected, double(kN) / 64.0, 2.0);
    // 16 KiB of straight-line code at 16 ops per 64-byte line: the
    // 256 lines and 4 pages each miss exactly once (they fit).
    EXPECT_EQ(b.at("l1iMiss").lo, 256.0);
    EXPECT_EQ(b.at("l1iMiss").hi, 256.0);
    EXPECT_EQ(b.at("itlbMiss").lo, 4.0);
    EXPECT_EQ(b.at("itlbMiss").hi, 4.0);
}

TEST(OracleBounds, ChaseMissRatiosAreCapacityRatios)
{
    // 256 MiB working set = 65536 pages against a 16+256 entry DTLB:
    // hit probability 272/65536, so misses concentrate near N.
    const auto b = boundsByName(suiteSpec(OracleFamily::Chase), kN);
    const double resident = 16.0 + 256.0;
    const double expected = double(kN) * (1.0 - resident / 65536.0);
    EXPECT_NEAR(b.at("dtlbLdMiss").expected, expected, 0.5);
    EXPECT_GT(b.at("dtlbLdMiss").lo, 0.98 * double(kN));
    EXPECT_LE(b.at("dtlbLdMiss").hi, double(kN));
    // Every op is a load; none is anything else.
    EXPECT_EQ(b.at("instLoads").lo, double(kN));
    EXPECT_EQ(b.at("brRetired").hi, 0.0);
    EXPECT_EQ(b.at("instStores").hi, 0.0);
}

// ---------------------------------------------------------------
// Property: generator-minted chase phases obey the chase bounds
// ---------------------------------------------------------------

TEST(OracleProperty, GeneratedChasePhasesStayInBounds)
{
    constexpr std::uint64_t kPropN = 20000;
    workload::GenOptions gen_options;
    gen_options.count = 3;
    for (std::uint64_t seed : {11ull, 29ull, 63ull}) {
        gen_options.seed = seed;
        for (const WorkloadSpec &minted :
             workload::generateWorkloads(gen_options)) {
            WorkloadSpec spec;
            spec.name = minted.name + "_chase";
            PhaseParams params =
                oracleChasePhase(minted.phases[0].params);
            params.validate();
            spec.phases.push_back(PhaseSpec{params, 1});
            ASSERT_EQ(classifyOracleSpec(spec), OracleFamily::Chase);

            uarch::Core core(config());
            workload::StreamGenerator gen(spec.phases[0].params,
                                          seed);
            for (std::uint64_t i = 0; i < kPropN; ++i)
                core.execute(gen.next());
            const uarch::EventCounters &measured = core.counters();
            for (const CounterBound &bound :
                 oracleBounds(spec, config(), kPropN)) {
                const auto actual = static_cast<double>(
                    measured.*uarch::counterByName(bound.counter));
                EXPECT_GE(actual, bound.lo)
                    << spec.name << " " << bound.counter;
                EXPECT_LE(actual, bound.hi)
                    << spec.name << " " << bound.counter;
            }
        }
    }
}

} // namespace
} // namespace mtperf::validate
