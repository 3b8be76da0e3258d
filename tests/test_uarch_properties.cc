/**
 * @file
 * Property tests of the microarchitecture models.
 *
 * These encode the classical monotonicity/inclusion laws any sane
 * machine model must satisfy: an LRU cache never loses hits when its
 * associativity grows (the inclusion property), and the timing core
 * never gets faster when a latency grows, nor slower when a resource
 * (width, window, cache) grows — all verified over randomized
 * workload streams.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/cache.h"
#include "uarch/core.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace mtperf::uarch {
namespace {

using workload::PhaseParams;
using workload::StreamGenerator;

PhaseParams
mixedPhase()
{
    PhaseParams p;
    p.name = "property";
    p.workingSetBytes = 8 * 1024 * 1024;
    p.pointerChaseFrac = 0.1;
    p.streamFrac = 0.2;
    p.branchEntropy = 0.1;
    p.lcpFrac = 0.01;
    p.misalignedFrac = 0.05;
    p.codeFootprintBytes = 128 * 1024;
    return p;
}

/** Cycles to execute @p n generated instructions on @p config. */
Cycle
cyclesFor(const CoreConfig &config, std::uint64_t seed, std::size_t n)
{
    Core core(config);
    StreamGenerator gen(mixedPhase(), seed);
    for (std::size_t i = 0; i < n; ++i)
        core.execute(gen.next());
    return core.counters().cycles;
}

class UarchPropertyTest : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UarchPropertyTest, LruInclusionUnderAssociativity)
{
    // Same set count, doubled ways: every hit of the small cache must
    // also hit in the large one (checked via miss counts over an
    // identical random address stream).
    CacheConfig small{"small", 16 * 1024, 4, 64, false, 1};
    CacheConfig large{"large", 32 * 1024, 8, 64, false, 1};
    Cache a(small), b(large);
    Rng rng(GetParam());
    const ZipfSampler zipf(4096, 0.8);
    for (int i = 0; i < 100000; ++i) {
        const Addr addr =
            zipf.sample(rng) * 64 + rng.uniformInt(std::uint64_t(64));
        const bool small_hit = a.access(addr);
        const bool large_hit = b.access(addr);
        if (small_hit) {
            ASSERT_TRUE(large_hit) << "inclusion violated at 0x"
                                   << std::hex << addr;
        }
    }
    EXPECT_LE(b.misses(), a.misses());
}

TEST_P(UarchPropertyTest, MemoryLatencyMonotone)
{
    CoreConfig slow;
    slow.memLatency = 300;
    EXPECT_GE(cyclesFor(slow, GetParam(), 30000),
              cyclesFor(CoreConfig{}, GetParam(), 30000));
}

TEST_P(UarchPropertyTest, WalkLatencyMonotone)
{
    CoreConfig slow;
    slow.pageWalkLatency = 120;
    EXPECT_GE(cyclesFor(slow, GetParam(), 30000),
              cyclesFor(CoreConfig{}, GetParam(), 30000));
}

TEST_P(UarchPropertyTest, MispredictPenaltyMonotone)
{
    CoreConfig harsh;
    harsh.mispredictPenalty = 60;
    EXPECT_GE(cyclesFor(harsh, GetParam(), 30000),
              cyclesFor(CoreConfig{}, GetParam(), 30000));
}

TEST_P(UarchPropertyTest, WidthMonotone)
{
    CoreConfig narrow;
    narrow.width = 1;
    CoreConfig wide;
    wide.width = 8;
    EXPECT_GE(cyclesFor(narrow, GetParam(), 30000),
              cyclesFor(wide, GetParam(), 30000));
}

TEST_P(UarchPropertyTest, WindowMonotone)
{
    CoreConfig tiny;
    tiny.robSize = 8;
    CoreConfig huge;
    huge.robSize = 256;
    EXPECT_GE(cyclesFor(tiny, GetParam(), 30000),
              cyclesFor(huge, GetParam(), 30000));
}

TEST_P(UarchPropertyTest, CycleAttributionAlwaysSumsExactly)
{
    Core core;
    StreamGenerator gen(mixedPhase(), GetParam());
    for (int i = 0; i < 20000; ++i)
        core.execute(gen.next());
    EXPECT_EQ(core.cpiStack().total(), core.counters().cycles);
}

TEST_P(UarchPropertyTest, CountersNeverExceedInstructions)
{
    Core core;
    StreamGenerator gen(mixedPhase(), GetParam());
    for (int i = 0; i < 20000; ++i)
        core.execute(gen.next());
    const EventCounters &c = core.counters();
    EXPECT_LE(c.instLoads + c.instStores + c.brRetired, c.instRetired);
    EXPECT_LE(c.brMispredicted, c.brRetired);
    EXPECT_LE(c.l2LineMiss, c.l1dLineMiss);
    EXPECT_LE(c.dtlbLdMiss, c.dtlbL0LdMiss);
    EXPECT_LE(c.l1dSplitLoads, c.instLoads);
    EXPECT_LE(c.l1dSplitStores, c.instStores);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UarchPropertyTest,
                         testing::Values(11u, 22u, 33u, 44u));

} // namespace
} // namespace mtperf::uarch
