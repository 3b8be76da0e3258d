/**
 * @file
 * Tests for the load/store queue block classifier.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "uarch/lsq.h"

namespace mtperf::uarch {
namespace {

LsqConfig
defaultConfig()
{
    return LsqConfig{};
}

TEST(Lsq, IndependentLoadIsFree)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 1);
    const auto result = lsq.checkLoad(0x2000, 4, 2);
    EXPECT_EQ(result.penalty, 0u);
    EXPECT_FALSE(result.sta);
    EXPECT_FALSE(result.std);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, SlowAddressStoreBlocksYoungLoad)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, /*addr_slow=*/true, 10);
    const auto result = lsq.checkLoad(0x9999, 4, 12); // unrelated addr!
    EXPECT_TRUE(result.sta);
    EXPECT_GT(result.penalty, 0u);
    EXPECT_EQ(lsq.staBlocks(), 1u);
}

TEST(Lsq, SlowAddressResolvesOutsideWindow)
{
    LsqConfig config;
    config.staWindowOps = 4;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, true, 10);
    const auto result = lsq.checkLoad(0x9999, 4, 20); // age 10 > window
    EXPECT_FALSE(result.sta);
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, FullCoverRecentStoreIsStdBlock)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 8, false, 10);
    const auto result = lsq.checkLoad(0x1000, 4, 11); // covered, age 1
    EXPECT_TRUE(result.std);
    EXPECT_FALSE(result.overlap);
    EXPECT_EQ(lsq.stdBlocks(), 1u);
}

TEST(Lsq, FullCoverAgedStoreForwardsForFree)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 8, false, 10);
    const auto result = lsq.checkLoad(0x1000, 8, 15); // age 5
    EXPECT_EQ(result.penalty, 0u);
    EXPECT_FALSE(result.std);
}

TEST(Lsq, PartialOverlapBlocks)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 10);
    // 8-byte load starting inside the 4-byte store: cannot forward.
    const auto result = lsq.checkLoad(0x1002, 8, 20);
    EXPECT_TRUE(result.overlap);
    EXPECT_EQ(lsq.overlapBlocks(), 1u);
}

TEST(Lsq, StoreCoveringLoadStartingEarlierIsOverlap)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1004, 4, false, 10);
    // Load covers [0x1000, 0x1008): store only covers the upper half.
    const auto result = lsq.checkLoad(0x1000, 8, 20);
    EXPECT_TRUE(result.overlap);
}

TEST(Lsq, YoungestMatchingStoreWins)
{
    LsqConfig config;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, false, 1);  // old, partial-overlap risk
    lsq.recordStore(0x1000, 8, false, 99); // young, full cover
    const auto result = lsq.checkLoad(0x1000, 4, 100);
    // The young store fully covers but its data is fresh -> STD.
    EXPECT_TRUE(result.std);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, YoungestMatchingStoreWinsAcrossTheWrap)
{
    LsqConfig config;
    config.storeBufferEntries = 3;
    config.stdWindowOps = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x9000, 4, false, 1);  // slot 0, evicted below
    lsq.recordStore(0x7000, 8, false, 2);  // slot 1, disjoint
    lsq.recordStore(0x1004, 4, false, 3);  // slot 2, partial overlap
    lsq.recordStore(0x1000, 8, false, 99); // slot 0, youngest

    // The youngest store, at slot 0, fully covers the load with fresh
    // data: STD, not the partial overlap of the store at slot 2.
    const auto young = lsq.checkLoad(0x1002, 4, 100);
    EXPECT_TRUE(young.std);
    EXPECT_FALSE(young.overlap);

    // A load older than slot 0's store skips it and the scan wraps on
    // to slot 2.
    const auto older = lsq.checkLoad(0x1002, 4, 50);
    EXPECT_TRUE(older.overlap);
    EXPECT_FALSE(older.std);

    // Only the evicted store touched 0x9000.
    const auto evicted = lsq.checkLoad(0x9000, 8, 100);
    EXPECT_EQ(evicted.penalty, 0u);
    EXPECT_FALSE(evicted.overlap);
    EXPECT_EQ(lsq.overlapBlocks(), 1u);
}

TEST(Lsq, RingEvictsOldestStores)
{
    LsqConfig config;
    config.storeBufferEntries = 2;
    LoadStoreQueue lsq(config);
    lsq.recordStore(0x1000, 4, false, 1);
    lsq.recordStore(0x2000, 4, false, 2);
    lsq.recordStore(0x3000, 4, false, 3); // evicts the 0x1000 store
    const auto result = lsq.checkLoad(0x1002, 8, 10);
    EXPECT_FALSE(result.overlap);
}

TEST(Lsq, OlderLoadIgnoresYoungerStore)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, false, 50);
    const auto result = lsq.checkLoad(0x1000, 4, 10); // load is older
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, ResetClearsBufferAndStats)
{
    LoadStoreQueue lsq(defaultConfig());
    lsq.recordStore(0x1000, 4, true, 1);
    lsq.checkLoad(0x1000, 4, 2);
    lsq.reset();
    EXPECT_EQ(lsq.staBlocks(), 0u);
    EXPECT_EQ(lsq.stdBlocks(), 0u);
    EXPECT_EQ(lsq.overlapBlocks(), 0u);
    const auto result = lsq.checkLoad(0x1000, 4, 3);
    EXPECT_EQ(result.penalty, 0u);
}

TEST(Lsq, ZeroEntriesRejected)
{
    LsqConfig config;
    config.storeBufferEntries = 0;
    EXPECT_THROW(LoadStoreQueue{config}, FatalError);
}

} // namespace
} // namespace mtperf::uarch
