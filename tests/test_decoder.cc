/**
 * @file
 * Tests for the LCP decoder model.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "uarch/decoder.h"

namespace mtperf::uarch {
namespace {

TEST(Decoder, OrdinaryInstructionIsFree)
{
    Decoder decoder;
    MicroOp op;
    op.hasLcp = false;
    EXPECT_EQ(decoder.decode(op), 0u);
    EXPECT_EQ(decoder.lcpStalls(), 0u);
}

TEST(Decoder, LcpChargesConfiguredBubble)
{
    DecoderConfig config;
    config.lcpStallCycles = 6;
    Decoder decoder(config);
    MicroOp op;
    op.hasLcp = true;
    EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.lcpStalls(), 2u);
}

TEST(Decoder, CustomStallWidth)
{
    DecoderConfig config;
    config.lcpStallCycles = 11;
    Decoder decoder(config);
    MicroOp op;
    op.hasLcp = true;
    EXPECT_EQ(decoder.decode(op), 11u);
}

TEST(Decoder, ResetClearsCount)
{
    Decoder decoder;
    MicroOp op;
    op.hasLcp = true;
    decoder.decode(op);
    decoder.reset();
    EXPECT_EQ(decoder.lcpStalls(), 0u);
}

TEST(DecoderCache, RepeatedPcHitsAfterFirstMiss)
{
    Decoder decoder;
    MicroOp op;
    op.pc = 0x400000;
    op.hasLcp = true;

    EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.cacheMisses(), 1u);
    EXPECT_EQ(decoder.cacheHits(), 0u);

    EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.cacheMisses(), 1u);
    EXPECT_EQ(decoder.cacheHits(), 2u);
    EXPECT_EQ(decoder.cacheLookups(),
              decoder.cacheHits() + decoder.cacheMisses());
    // Stall accounting is per dynamic instruction, hit or miss.
    EXPECT_EQ(decoder.lcpStalls(), 3u);
}

TEST(DecoderCache, EncodingChangeAtSamePcIsNotServedStale)
{
    Decoder decoder;
    MicroOp plain;
    plain.pc = 0x400000;
    plain.hasLcp = false;
    MicroOp prefixed = plain;
    prefixed.hasLcp = true;

    EXPECT_EQ(decoder.decode(plain), 0u);
    // Same pc, different encoding: must re-derive, not reuse.
    EXPECT_EQ(decoder.decode(prefixed), 6u);
    EXPECT_EQ(decoder.decode(plain), 0u);
    EXPECT_EQ(decoder.cacheHits(), 0u);
    EXPECT_EQ(decoder.cacheMisses(), 3u);
}

TEST(DecoderCache, DisabledCacheCountsEveryDecodeAsMiss)
{
    DecoderConfig config;
    config.decodeCacheEntries = 0;
    Decoder decoder(config);
    MicroOp op;
    op.pc = 0x400000;
    op.hasLcp = true;

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(decoder.decode(op), 6u);
    EXPECT_EQ(decoder.cacheHits(), 0u);
    EXPECT_EQ(decoder.cacheMisses(), 5u);
    EXPECT_EQ(decoder.cacheLookups(), 5u);
    EXPECT_EQ(decoder.lcpStalls(), 5u);
}

TEST(DecoderCache, BubblesIdenticalWithCacheOnOffAndTiny)
{
    DecoderConfig off;
    off.decodeCacheEntries = 0;
    DecoderConfig tiny;
    tiny.decodeCacheEntries = 2; // forces heavy conflict eviction
    Decoder with_cache;
    Decoder without(off);
    Decoder conflicted(tiny);

    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        MicroOp op;
        // Small pc footprint => plenty of hits; pow-2 spaced pcs also
        // exercise index aliasing in the tiny cache.
        op.pc = 0x400000 + rng.uniformInt(std::uint64_t(64)) * 4;
        op.hasLcp = rng.chance(0.1);
        const Cycle expected = without.decode(op);
        EXPECT_EQ(with_cache.decode(op), expected);
        EXPECT_EQ(conflicted.decode(op), expected);
    }
    EXPECT_GT(with_cache.cacheHits(), 0u);
    EXPECT_EQ(with_cache.lcpStalls(), without.lcpStalls());
    EXPECT_EQ(conflicted.lcpStalls(), without.lcpStalls());
}

TEST(DecoderCache, ResetClearsCacheAndAccounting)
{
    Decoder decoder;
    MicroOp op;
    op.pc = 0x400000;
    op.hasLcp = true;
    decoder.decode(op);
    decoder.decode(op);
    decoder.reset();
    EXPECT_EQ(decoder.cacheLookups(), 0u);
    EXPECT_EQ(decoder.cacheHits(), 0u);
    EXPECT_EQ(decoder.cacheMisses(), 0u);
    // The first decode after reset must miss again (no stale entries).
    decoder.decode(op);
    EXPECT_EQ(decoder.cacheMisses(), 1u);
    EXPECT_EQ(decoder.cacheHits(), 0u);
}

TEST(DecoderCache, GlobalInvariantHoldsAfterDecodes)
{
    Decoder decoder;
    MicroOp op;
    op.pc = 0x401000;
    for (int i = 0; i < 100; ++i) {
        op.pc += 4;
        decoder.decode(op);
    }
    for (const auto &violation : obs::validateInvariants())
        EXPECT_NE(violation.name, "decode.cache_accounting")
            << violation.message;
}

/** The three process-wide decode counters at one moment. */
struct GlobalDecodeCounts
{
    std::uint64_t lookups = obs::counter("decode.cache_lookups").value();
    std::uint64_t hits = obs::counter("decode.cache_hits").value();
    std::uint64_t misses = obs::counter("decode.cache_misses").value();
};

TEST(DecoderCache, DecodeDoesNotWriteProcessWideCounters)
{
    const GlobalDecodeCounts before;
    std::uint64_t lookups = 0, hits = 0, misses = 0;
    {
        Decoder decoder;
        MicroOp op;
        for (int i = 0; i < 1000; ++i) {
            op.pc = 0x400000 + (i % 16) * 4;
            op.hasLcp = i % 3 == 0;
            decoder.decode(op);
        }
        EXPECT_EQ(GlobalDecodeCounts().lookups, before.lookups);
        lookups = decoder.cacheLookups();
        hits = decoder.cacheHits();
        misses = decoder.cacheMisses();
        EXPECT_EQ(lookups, 1000u);
        EXPECT_GT(hits, 0u);
        EXPECT_GT(misses, 0u);
    }
    const GlobalDecodeCounts after;
    EXPECT_EQ(after.lookups - before.lookups, lookups);
    EXPECT_EQ(after.hits - before.hits, hits);
    EXPECT_EQ(after.misses - before.misses, misses);
}

TEST(DecoderCache, PublishesEveryBatchOfLookups)
{
    const GlobalDecodeCounts before;
    {
        Decoder decoder;
        MicroOp op;
        for (std::uint64_t i = 0; i < Decoder::kPublishBatch + 1; ++i) {
            op.pc = 0x400000 + (i % 4096) * 4;
            decoder.decode(op);
        }
        const GlobalDecodeCounts mid;
        EXPECT_EQ(mid.lookups - before.lookups, Decoder::kPublishBatch);
        EXPECT_EQ((mid.hits - before.hits) + (mid.misses - before.misses),
                  Decoder::kPublishBatch);
    }
    const GlobalDecodeCounts after;
    EXPECT_EQ(after.lookups - before.lookups, Decoder::kPublishBatch + 1);
    EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
              Decoder::kPublishBatch + 1);
}

TEST(DecoderCache, ResetPublishesBeforeClearing)
{
    const GlobalDecodeCounts before;
    Decoder decoder;
    MicroOp op;
    op.pc = 0x400000;
    for (int i = 0; i < 10; ++i)
        decoder.decode(op);
    decoder.reset();
    const GlobalDecodeCounts after;
    EXPECT_EQ(after.lookups - before.lookups, 10u);
    EXPECT_EQ(after.hits - before.hits, 9u);
    EXPECT_EQ(after.misses - before.misses, 1u);
}

} // namespace
} // namespace mtperf::uarch
