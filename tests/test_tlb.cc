/**
 * @file
 * Tests for the TLB models.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "uarch/tlb.h"

namespace mtperf::uarch {
namespace {

TlbConfig
tinyTlb(std::uint32_t entries, std::uint32_t assoc)
{
    TlbConfig c;
    c.entries = entries;
    c.associativity = assoc;
    c.pageBytes = 4096;
    return c;
}

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb(tinyTlb(16, 4));
    EXPECT_FALSE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10FFF)); // same 4K page
    EXPECT_FALSE(tlb.access(0x11000)); // next page
    EXPECT_EQ(tlb.accesses(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, CapacityEviction)
{
    // Fully-associative 4-entry TLB: a 5th page evicts the LRU.
    Tlb tlb(tinyTlb(4, 4));
    for (Addr p = 0; p < 5; ++p)
        tlb.access(p * 4096);
    EXPECT_FALSE(tlb.access(0)); // page 0 was LRU
}

TEST(Tlb, LruRefreshOnHit)
{
    Tlb tlb(tinyTlb(2, 2));
    tlb.access(0 * 4096);
    tlb.access(1 * 4096);
    tlb.access(0 * 4096);       // refresh page 0
    tlb.access(2 * 4096);       // evicts page 1
    EXPECT_TRUE(tlb.access(0 * 4096));
    EXPECT_FALSE(tlb.access(1 * 4096));
}

TEST(Tlb, WorkingSetWithinCapacityAllHitsAfterWarmup)
{
    Tlb tlb(tinyTlb(64, 4));
    for (Addr p = 0; p < 64; ++p)
        tlb.access(p * 4096);
    for (Addr p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.access(p * 4096));
}

TEST(Tlb, ResetClears)
{
    Tlb tlb(tinyTlb(16, 4));
    tlb.access(0x1000);
    tlb.reset();
    EXPECT_EQ(tlb.accesses(), 0u);
    EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, GeometryValidation)
{
    TlbConfig bad_page = tinyTlb(16, 4);
    bad_page.pageBytes = 3000;
    EXPECT_THROW(Tlb{bad_page}, FatalError);

    // A 1-byte page would let a VPN equal the empty-way tag.
    TlbConfig byte_page = tinyTlb(16, 4);
    byte_page.pageBytes = 1;
    EXPECT_THROW(Tlb{byte_page}, FatalError);
    byte_page.pageBytes = 2;
    EXPECT_NO_THROW(Tlb{byte_page});

    TlbConfig bad_assoc = tinyTlb(15, 4);
    EXPECT_THROW(Tlb{bad_assoc}, FatalError);

    TlbConfig bad_sets = tinyTlb(24, 4); // 6 sets: not a power of two
    EXPECT_THROW(Tlb{bad_sets}, FatalError);
}

TEST(TwoLevelDtlb, L0HitPath)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    auto first = dtlb.translateLoad(0x5000);
    EXPECT_FALSE(first.l0Hit);
    EXPECT_FALSE(first.mainHit);
    auto second = dtlb.translateLoad(0x5000);
    EXPECT_TRUE(second.l0Hit);
    EXPECT_TRUE(second.mainHit);
}

TEST(TwoLevelDtlb, L0MissMainHit)
{
    TwoLevelDtlb dtlb(tinyTlb(2, 2), tinyTlb(64, 4));
    // Touch 3 pages: page 0 falls out of the 2-entry L0 but stays in
    // the main DTLB.
    dtlb.translateLoad(0 * 4096);
    dtlb.translateLoad(1 * 4096);
    dtlb.translateLoad(2 * 4096);
    const auto result = dtlb.translateLoad(0 * 4096);
    EXPECT_FALSE(result.l0Hit);
    EXPECT_TRUE(result.mainHit);
}

TEST(TwoLevelDtlb, StoresBypassL0)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    EXPECT_FALSE(dtlb.translateStore(0x9000));
    EXPECT_TRUE(dtlb.translateStore(0x9000));
    // The store warmed the main DTLB, not the L0.
    const auto load = dtlb.translateLoad(0x9000);
    EXPECT_FALSE(load.l0Hit);
    EXPECT_TRUE(load.mainHit);
}

TEST(TwoLevelDtlb, ResetClearsBothLevels)
{
    TwoLevelDtlb dtlb(tinyTlb(4, 4), tinyTlb(64, 4));
    dtlb.translateLoad(0x5000);
    dtlb.reset();
    const auto result = dtlb.translateLoad(0x5000);
    EXPECT_FALSE(result.l0Hit);
    EXPECT_FALSE(result.mainHit);
}

} // namespace
} // namespace mtperf::uarch
