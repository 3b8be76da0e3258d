/**
 * @file
 * Tests for the multicore subsystem: the shared L2's interference
 * accounting (ownership, stolen lines, arbitration, the shared
 * streamer), the solo-core equivalence that makes --cores 1 a
 * regression oracle, golden byte pins of the single-core outputs,
 * and co-run execution (contention, provenance, thread invariance,
 * CSV round trips).
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/parallel.h"
#include "data/io.h"
#include "multicore/corun_runner.h"
#include "multicore/shared_l2.h"
#include "multicore/system.h"
#include "perf/section_collector.h"
#include "uarch/event_counters.h"
#include "workload/runner.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"
#include "workload/trace.h"

namespace mtperf::multicore {
namespace {

bool
isContentionCounter(const std::string &name)
{
    return name == "l2SharedMisses" ||
           name == "l2OccupancyEvictedByOther" ||
           name == "prefetchCancellations";
}

workload::WorkloadSpec
suiteWorkload(const std::string &name)
{
    for (const workload::WorkloadSpec &spec :
         workload::specLikeSuite()) {
        if (spec.name == name)
            return spec;
    }
    ADD_FAILURE() << "no suite workload named " << name;
    return {};
}

/** The golden pins below run against the embedded suite. */
class MulticoreGoldenTest : public testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

// ---------------------------------------------------------------
// SharedL2 unit behaviour
// ---------------------------------------------------------------

uarch::CacheConfig
tinySharedConfig()
{
    uarch::CacheConfig config;
    config.name = "l2";
    config.sizeBytes = 4096; // 16 sets x 4 ways x 64 B
    config.associativity = 4;
    config.lineBytes = 64;
    config.nextLinePrefetch = false;
    return config;
}

TEST(SharedL2, CrossCoreEvictionIsChargedAndReMissIsShared)
{
    SharedL2 l2(tinySharedConfig(), 2);
    uarch::Cycle cycle = 0;

    // Core 0 installs one line in set 0.
    l2.access(0, 0, uarch::L2AccessKind::Load, ++cycle);
    // Core 1 fills the whole of set 0 (16 sets -> stride 1024), which
    // must displace core 0's line and charge *core 0*, not core 1.
    for (std::uint64_t k = 0; k < 4; ++k)
        l2.access(1, k * 1024, uarch::L2AccessKind::Load, ++cycle);
    EXPECT_EQ(l2.stats(0).l2OccupancyEvictedByOther, 1u);
    EXPECT_EQ(l2.stats(1).l2OccupancyEvictedByOther, 0u);
    EXPECT_EQ(l2.stats(0).l2SharedMisses, 0u);

    // Core 0 comes back for its stolen line: a demand miss that the
    // directory attributes to interference.
    const uarch::L2AccessResult back =
        l2.access(0, 0, uarch::L2AccessKind::Load, ++cycle);
    EXPECT_FALSE(back.hit);
    EXPECT_EQ(l2.stats(0).l2SharedMisses, 1u);
    EXPECT_EQ(l2.stats(1).l2SharedMisses, 0u);
}

TEST(SharedL2, CoreZeroAddressesAreUnsalted)
{
    // Core 0's conflict pattern must match a private cache exactly:
    // filling one set with its own 4 ways plus one more evicts its
    // own oldest line, and self-eviction is not interference.
    SharedL2 l2(tinySharedConfig(), 2);
    uarch::Cycle cycle = 0;
    for (std::uint64_t k = 0; k < 5; ++k)
        l2.access(0, k * 1024, uarch::L2AccessKind::Load, ++cycle);
    EXPECT_FALSE(
        l2.access(0, 0, uarch::L2AccessKind::Load, ++cycle).hit);
    EXPECT_EQ(l2.stats(0).l2OccupancyEvictedByOther, 0u);
    EXPECT_EQ(l2.stats(0).l2SharedMisses, 0u);
}

TEST(SharedL2, CoreAddressSpacesDoNotAlias)
{
    // The same virtual address on two cores is two different lines:
    // core 1 missing on address 0 right after core 0 filled it must
    // miss (different process), not hit core 0's line.
    SharedL2 l2(tinySharedConfig(), 2);
    EXPECT_FALSE(l2.access(0, 0, uarch::L2AccessKind::Load, 1).hit);
    EXPECT_FALSE(l2.access(1, 0, uarch::L2AccessKind::Load, 2).hit);
    // And each core re-hits its own copy.
    EXPECT_TRUE(l2.access(0, 0, uarch::L2AccessKind::Load, 3).hit);
    EXPECT_TRUE(l2.access(1, 0, uarch::L2AccessKind::Load, 4).hit);
}

TEST(SharedL2, SameCycleAccessesQueueInCoreIdOrder)
{
    SharedL2 l2(tinySharedConfig(), 3);
    // Three cores land in cycle 10: the tie breaks to the lowest id,
    // which pays no delay; each later core queues one cycle deeper.
    EXPECT_EQ(l2.access(0, 0, uarch::L2AccessKind::Load, 10).queueDelay,
              0u);
    EXPECT_EQ(
        l2.access(1, 4096, uarch::L2AccessKind::Load, 10).queueDelay,
        1u);
    EXPECT_EQ(
        l2.access(2, 8192, uarch::L2AccessKind::Load, 10).queueDelay,
        2u);
    // A new cycle drains the queue.
    EXPECT_EQ(
        l2.access(0, 64, uarch::L2AccessKind::Load, 11).queueDelay, 0u);
}

TEST(SharedL2, SharedStreamerRetrainsOnCoreSwitch)
{
    uarch::CacheConfig config = tinySharedConfig();
    config.sizeBytes = 256 * 1024;
    config.associativity = 8;
    config.nextLinePrefetch = true;
    config.prefetchDegree = 2;
    SharedL2 l2(config, 2);
    uarch::Cycle cycle = 0;

    // Core 0 trains the stream: the miss fills the next two lines.
    EXPECT_FALSE(
        l2.access(0, 0x10000, uarch::L2AccessKind::Load, ++cycle).hit);
    EXPECT_TRUE(
        l2.access(0, 0x10040, uarch::L2AccessKind::Load, ++cycle).hit);

    // Core 1's miss retrains: core 0 is charged a cancellation and
    // the retraining miss issues no fills...
    EXPECT_FALSE(
        l2.access(1, 0x20000, uarch::L2AccessKind::Load, ++cycle).hit);
    EXPECT_EQ(l2.stats(0).prefetchCancellations, 1u);
    EXPECT_EQ(l2.stats(1).prefetchCancellations, 0u);
    EXPECT_FALSE(
        l2.access(1, 0x20040, uarch::L2AccessKind::Load, ++cycle).hit);
    // ...but once core 1 owns the stream its misses fill ahead again.
    EXPECT_TRUE(
        l2.access(1, 0x20080, uarch::L2AccessKind::Load, ++cycle).hit);

    // Ownership flips back: now core 1 pays.
    EXPECT_FALSE(
        l2.access(0, 0x30000, uarch::L2AccessKind::Load, ++cycle).hit);
    EXPECT_EQ(l2.stats(1).prefetchCancellations, 1u);
}

// ---------------------------------------------------------------
// Solo-core equivalence: --cores 1 is the regression oracle
// ---------------------------------------------------------------

TEST(MulticoreSystem, SoloCoreMatchesPrivateHierarchyExactly)
{
    const workload::WorkloadSpec spec = suiteWorkload("mcf_like");
    const uarch::CoreConfig config = uarch::CoreConfig::core2Like();

    uarch::Core solo(config);
    MulticoreSystem system(config, 1);
    workload::StreamGenerator gen_solo(spec.phases.front().params, 42);
    workload::StreamGenerator gen_shared(spec.phases.front().params,
                                         42);
    for (int i = 0; i < 20000; ++i) {
        solo.execute(gen_solo.next());
        system.core(0).execute(gen_shared.next());
    }

    const uarch::EventCounters a = solo.counters();
    const uarch::EventCounters b = system.counters(0);
    for (const auto &field : uarch::counterFields())
        EXPECT_EQ(a.*(field.member), b.*(field.member)) << field.name;
    for (const auto &field : uarch::counterFields()) {
        if (isContentionCounter(field.name)) {
            EXPECT_EQ(b.*(field.member), 0u) << field.name;
        }
    }
}

TEST(MulticoreSystem, NextCoreFollowsTheSteppingContract)
{
    MulticoreSystem system(uarch::CoreConfig::core2Like(), 3);
    std::vector<bool> runnable(3, true);
    // Fresh cores all sit at cycle 0: the tie breaks to core 0.
    EXPECT_EQ(system.nextCore(runnable), 0u);
    runnable[0] = false;
    EXPECT_EQ(system.nextCore(runnable), 1u);
    runnable[1] = false;
    EXPECT_EQ(system.nextCore(runnable), 2u);
}

// ---------------------------------------------------------------
// Golden pins: single-core output bytes cannot move
// ---------------------------------------------------------------

TEST_F(MulticoreGoldenTest, SingleCoreDatasetBytesArePinned)
{
    // Two parameter points of the suite collector, pinned before the
    // multicore subsystem landed: any change to these bytes breaks
    // every downstream model and must be a deliberate format bump.
    struct Pin
    {
        double scale;
        std::uint64_t instructions;
        std::uint64_t seed;
        double jitter;
        std::size_t rows;
        std::uint32_t crc;
    };
    const Pin pins[] = {
        {0.02, 2000, 42, 0.18, 202, 0xc319a38cu},
        {0.01, 500, 7, 0.1, 102, 0xb5f7c882u},
    };
    for (const Pin &pin : pins) {
        workload::RunnerOptions options;
        options.sectionScale = pin.scale;
        options.instructionsPerSection = pin.instructions;
        options.seed = pin.seed;
        options.paramJitter = pin.jitter;
        const Dataset ds = perf::collectSuiteDataset(options);
        EXPECT_EQ(ds.size(), pin.rows);
        std::ostringstream os;
        writeDatasetCsv(os, ds);
        EXPECT_EQ(crc32(os.str()), pin.crc)
            << "scale=" << pin.scale << " seed=" << pin.seed;
    }
}

TEST_F(MulticoreGoldenTest, TraceBytesArePinned)
{
    const workload::WorkloadSpec spec = suiteWorkload("mcf_like");
    const std::string path =
        testing::TempDir() + "/golden_multicore_trace.bin";
    EXPECT_EQ(workload::recordTrace(spec.phases.front().params, 42,
                                    5000, path),
              5000u);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str().size(), 140040u);
    EXPECT_EQ(crc32(bytes.str()), 0xabb4728fu);
    std::remove(path.c_str());
}

TEST_F(MulticoreGoldenTest, SectionCountersArePinnedAndContentionFree)
{
    // Pin every pre-multicore counter of every section of a suite
    // run, and separately require the three contention counters to be
    // zero: a single-core run must not know the shared L2 exists.
    workload::RunnerOptions options;
    options.sectionScale = 0.01;
    options.instructionsPerSection = 500;
    options.seed = 42;
    options.paramJitter = 0.18;
    const std::vector<workload::SectionRecord> records =
        workload::runSuite(workload::specLikeSuite(), options);
    EXPECT_EQ(records.size(), 102u);

    Crc32 crc;
    for (const workload::SectionRecord &r : records) {
        std::ostringstream line;
        line << r.workload << ' ' << r.phase << ' ' << r.sectionIndex;
        for (const auto &field : uarch::counterFields()) {
            if (isContentionCounter(field.name)) {
                EXPECT_EQ(r.counters.*(field.member), 0u)
                    << r.workload << " section " << r.sectionIndex
                    << " " << field.name;
                continue;
            }
            line << ' ' << field.name << '='
                 << r.counters.*(field.member);
        }
        line << '\n';
        crc.update(line.str());
    }
    EXPECT_EQ(crc.value(), 0x50e7f5a9u);
}

// ---------------------------------------------------------------
// Co-run execution
// ---------------------------------------------------------------

workload::RunnerOptions
corunOptions()
{
    workload::RunnerOptions options;
    options.sectionScale = 0.02;
    options.instructionsPerSection = 2000;
    options.seed = 42;
    return options;
}

CorunScenario
mcfGccScenario()
{
    CorunScenario scenario;
    scenario.lanes.push_back(suiteWorkload("mcf_like"));
    scenario.lanes.push_back(suiteWorkload("gcc_like"));
    return scenario;
}

class MulticoreCorunTest : public testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

TEST_F(MulticoreCorunTest, ScenarioRecordsCarryProvenanceAndContention)
{
    const CorunScenario scenario = mcfGccScenario();
    const std::vector<workload::SectionRecord> records =
        runCorunScenario(scenario, corunOptions());
    ASSERT_FALSE(records.empty());

    std::vector<std::uint64_t> contention(2, 0);
    std::vector<std::size_t> sections(2, 0);
    for (const workload::SectionRecord &r : records) {
        ASSERT_LT(r.core, 2u);
        EXPECT_EQ(r.corunSet, "mcf_like+gcc_like");
        EXPECT_EQ(r.workload, scenario.lanes[r.core].name);
        ++sections[r.core];
        contention[r.core] += r.counters.l2SharedMisses +
                              r.counters.l2OccupancyEvictedByOther +
                              r.counters.prefetchCancellations;
    }
    // Both lanes produced sections and both felt the other: a shared
    // L2 that stops attributing interference zeroes these.
    EXPECT_GT(sections[0], 0u);
    EXPECT_GT(sections[1], 0u);
    EXPECT_GT(contention[0], 0u);
    EXPECT_GT(contention[1], 0u);

    // The same lanes run solo stay contention-free.
    for (const workload::WorkloadSpec &lane : scenario.lanes) {
        for (const workload::SectionRecord &r :
             workload::runWorkload(lane, corunOptions())) {
            EXPECT_EQ(r.counters.l2SharedMisses, 0u);
            EXPECT_EQ(r.counters.l2OccupancyEvictedByOther, 0u);
            EXPECT_EQ(r.counters.prefetchCancellations, 0u);
        }
    }
}

TEST_F(MulticoreCorunTest, SuiteBytesAreThreadCountInvariant)
{
    std::vector<CorunScenario> scenarios;
    scenarios.push_back(mcfGccScenario());
    {
        CorunScenario swapped;
        swapped.lanes.push_back(suiteWorkload("gcc_like"));
        swapped.lanes.push_back(suiteWorkload("mcf_like"));
        scenarios.push_back(swapped);
    }

    const auto bytes = [&] {
        std::ostringstream os;
        writeDatasetCsv(os, perf::collectCorunDataset(scenarios,
                                                      corunOptions()));
        return os.str();
    };
    setGlobalThreadCount(1);
    const std::string serial = bytes();
    setGlobalThreadCount(4);
    const std::string parallel = bytes();
    EXPECT_EQ(serial, parallel);
}

TEST_F(MulticoreCorunTest, CorunCsvRoundTripsProvenance)
{
    std::vector<CorunScenario> scenarios;
    scenarios.push_back(mcfGccScenario());
    const Dataset ds =
        perf::collectCorunDataset(scenarios, corunOptions());
    ASSERT_TRUE(ds.hasCorun());

    std::ostringstream os;
    writeDatasetCsv(os, ds);
    std::istringstream in(os.str());
    const Dataset back = readDatasetCsv(in, "CPI");
    ASSERT_TRUE(back.hasCorun());
    ASSERT_EQ(back.size(), ds.size());
    for (std::size_t r = 0; r < ds.size(); ++r) {
        EXPECT_EQ(back.corun(r).core, ds.corun(r).core);
        EXPECT_EQ(back.corun(r).corunSet, ds.corun(r).corunSet);
    }
    std::ostringstream again;
    writeDatasetCsv(again, back);
    EXPECT_EQ(again.str(), os.str());
}

} // namespace
} // namespace mtperf::multicore
