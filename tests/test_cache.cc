/**
 * @file
 * Tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "uarch/cache.h"

namespace mtperf::uarch {
namespace {

CacheConfig
tinyCache(std::uint32_t size, std::uint32_t assoc)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = 64;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103F)); // same line
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, DistinctLinesMissSeparately)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_FALSE(cache.access(0x0));
    EXPECT_FALSE(cache.access(0x40));
    EXPECT_TRUE(cache.access(0x0));
    EXPECT_TRUE(cache.access(0x40));
}

TEST(Cache, LruEvictionOrder)
{
    // Direct-mapped-like conflict: 1 set x 2 ways (128 B, 2-way).
    Cache cache(tinyCache(128, 2));
    // Three lines mapping to the same (only) set.
    cache.access(0x000);
    cache.access(0x040);
    cache.access(0x080); // evicts 0x000 (LRU)
    EXPECT_FALSE(cache.access(0x000));
    // Now 0x040 was LRU and got evicted by the re-fill of 0x000.
    EXPECT_FALSE(cache.access(0x040));
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache cache(tinyCache(128, 2));
    cache.access(0x000);
    cache.access(0x040);
    cache.access(0x000); // refresh 0x000; 0x040 becomes LRU
    cache.access(0x080); // evicts 0x040
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x040));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache(tinyCache(128, 2));
    cache.access(0x000);
    cache.access(0x040);
    // Probing 0x000 must not refresh it.
    EXPECT_TRUE(cache.probe(0x000));
    cache.access(0x080); // still evicts 0x000 as LRU
    EXPECT_FALSE(cache.probe(0x000));
    EXPECT_EQ(cache.accesses(), 3u);
}

TEST(Cache, FillDoesNotCountDemand)
{
    Cache cache(tinyCache(1024, 2));
    cache.fill(0x1000);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_TRUE(cache.access(0x1000));
}

TEST(Cache, NextLinePrefetchHidesSequentialMisses)
{
    CacheConfig c = tinyCache(4096, 4);
    c.nextLinePrefetch = true;
    c.prefetchDegree = 1;
    Cache cache(c);
    cache.access(0x0000);          // miss, prefetches 0x0040
    EXPECT_TRUE(cache.access(0x0040));
    EXPECT_EQ(cache.prefetchFills(), 1u);
}

TEST(Cache, PrefetchDegreeFetchesAhead)
{
    CacheConfig c = tinyCache(4096, 4);
    c.nextLinePrefetch = true;
    c.prefetchDegree = 3;
    Cache cache(c);
    cache.access(0x0000);
    EXPECT_TRUE(cache.probe(0x0040));
    EXPECT_TRUE(cache.probe(0x0080));
    EXPECT_TRUE(cache.probe(0x00C0));
    EXPECT_FALSE(cache.probe(0x0100));
}

TEST(Cache, StridedStreamMissRatioWithoutPrefetch)
{
    // Working set 4x the cache: every line eventually misses.
    Cache cache(tinyCache(4096, 4));
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a = 0; a < 16384; a += 64)
            cache.access(a);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0);
}

TEST(Cache, FitsWorkingSetAfterWarmup)
{
    Cache cache(tinyCache(4096, 4));
    for (Addr a = 0; a < 4096; a += 64)
        cache.access(a); // warm
    const auto misses_before = cache.misses();
    for (int pass = 0; pass < 10; ++pass)
        for (Addr a = 0; a < 4096; a += 64)
            cache.access(a);
    EXPECT_EQ(cache.misses(), misses_before);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(tinyCache(1024, 2));
    cache.access(0x0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, MissRatioZeroWithoutAccesses)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(Cache, GeometryValidation)
{
    CacheConfig bad_line = tinyCache(1024, 2);
    bad_line.lineBytes = 48;
    EXPECT_THROW(Cache{bad_line}, FatalError);

    // A 1-byte line would let a line address equal the empty-way tag.
    CacheConfig byte_line = tinyCache(1024, 2);
    byte_line.lineBytes = 1;
    EXPECT_THROW(Cache{byte_line}, FatalError);
    byte_line.lineBytes = 2;
    EXPECT_NO_THROW(Cache{byte_line});

    CacheConfig bad_assoc = tinyCache(1024, 0);
    EXPECT_THROW(Cache{bad_assoc}, FatalError);

    CacheConfig bad_size = tinyCache(1024 + 64, 2);
    EXPECT_THROW(Cache{bad_size}, FatalError);
}

class CacheGeometryTest
    : public testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheGeometryTest, CapacityBehaviour)
{
    const auto [size, assoc] = GetParam();
    Cache cache(tinyCache(size, assoc));
    const Addr lines = size / 64;
    // Fill exactly to capacity, then re-touch: all hits.
    for (Addr i = 0; i < lines; ++i)
        cache.access(i * 64);
    for (Addr i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(i * 64));
    EXPECT_EQ(cache.misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometryTest,
    testing::Values(std::pair<std::uint32_t, std::uint32_t>{512, 1},
                    std::pair<std::uint32_t, std::uint32_t>{1024, 2},
                    std::pair<std::uint32_t, std::uint32_t>{4096, 4},
                    std::pair<std::uint32_t, std::uint32_t>{32768, 8},
                    std::pair<std::uint32_t, std::uint32_t>{4096, 16}));

} // namespace
} // namespace mtperf::uarch
