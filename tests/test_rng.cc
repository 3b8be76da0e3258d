/**
 * @file
 * Tests for the deterministic random number generator.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"

namespace mtperf {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const auto first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 2.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 2.0);
    }
}

TEST(Rng, UniformIntCoversSupportUniformly)
{
    Rng rng(17);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(std::uint64_t(10))];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(RngDeathTest, UniformIntOfZeroAborts)
{
    Rng rng(19);
    EXPECT_DEATH((void)rng.uniformInt(std::uint64_t{0}),
                 "uniformInt\\(0\\) is undefined");
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceProbabilityApprox)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(31);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale)
{
    Rng rng(37);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(41);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(43);
    const GeometricSampler geometric(0.25);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(geometric.sample(rng));
    // Mean of failures-before-success geometric is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, GeometricPOneIsZero)
{
    Rng rng(47), untouched(47);
    const GeometricSampler geometric(1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(geometric.sample(rng), 0u);
    EXPECT_EQ(rng.next(), untouched.next());
    EXPECT_EQ(GeometricSampler().sample(rng), 0u);
}

TEST(RngDeathTest, GeometricPOutsideUnitIntervalAborts)
{
    EXPECT_DEATH(GeometricSampler(0.0), "geometric p out of range");
    EXPECT_DEATH(GeometricSampler(1.5), "geometric p out of range");
}

TEST(Rng, ZipfSupport)
{
    Rng rng(53);
    const ZipfSampler zipf(100, 1.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Rng, ZipfSingleElement)
{
    Rng rng(59);
    const ZipfSampler zipf(1, 1.2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Rng, ZipfRankFrequenciesDecrease)
{
    Rng rng(61);
    const ZipfSampler zipf(50, 1.0);
    std::vector<int> counts(50, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.sample(rng)];
    // Head elements should dominate tail elements clearly.
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[0], 4 * counts[24]);
    EXPECT_GT(counts[1], counts[30]);
}

TEST(Rng, ZipfMatchesTheoreticalHeadMass)
{
    Rng rng(67);
    const std::uint64_t n = 1000;
    const double s = 1.0;
    const ZipfSampler zipf(n, s);
    std::vector<int> counts(n, 0);
    const int draws = 300000;
    for (int i = 0; i < draws; ++i)
        ++counts[zipf.sample(rng)];
    double harmonic = 0.0;
    for (std::uint64_t r = 1; r <= n; ++r)
        harmonic += 1.0 / static_cast<double>(r);
    const double expected_first = 1.0 / harmonic;
    EXPECT_NEAR(static_cast<double>(counts[0]) / draws, expected_first,
                0.02);
}

/** Little-endian bytes of @p v into @p crc. */
void
crcWord(Crc32 &crc, std::uint64_t v)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    crc.update(bytes, sizeof bytes);
}

/** CRC32 over 4,096 draws of @p draw from a fresh, fixed-seed Rng. */
template <typename Draw>
std::uint32_t
crcOfDraws(Draw draw)
{
    Rng rng(20070425);
    Crc32 crc;
    for (int i = 0; i < 4096; ++i)
        crcWord(crc, draw(rng));
    return crc.value();
}

// Pins every stream the simulator draws from, so a change to the
// generator or a helper that alters one value fails here and not only
// in a downstream CSV digest. Changing one of these values is a
// deliberate re-baseline of every simulated dataset.
TEST(Rng, GoldenStreams)
{
    EXPECT_EQ(crcOfDraws([](Rng &r) { return r.next(); }), 0x5c0ac7d1u);
    EXPECT_EQ(crcOfDraws([](Rng &r) {
                  return std::bit_cast<std::uint64_t>(r.uniform());
              }),
              0x20bb501cu);
    EXPECT_EQ(crcOfDraws([](Rng &r) {
                  return r.uniformInt(std::uint64_t{10});
              }),
              0xbc4ea93cu);
    // About half of these draws take the rejection loop.
    EXPECT_EQ(crcOfDraws([](Rng &r) {
                  return r.uniformInt((std::uint64_t{1} << 63) + 1);
              }),
              0x18dd3bc4u);
    EXPECT_EQ(crcOfDraws([](Rng &r) {
                  return std::uint64_t{r.chance(0.3)};
              }),
              0x58795139u);
    const GeometricSampler quarter(0.25);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return quarter.sample(r); }),
              0x89f4a36bu);
    const GeometricSampler certain(1.0);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return certain.sample(r); }),
              0x011ffca6u);

    // The generator's Zipf shapes: hot lines (s = 1.2), data and code
    // footprints. The last draws ranks beyond the tabulated bounds.
    const ZipfSampler hot(256, 1.2);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return hot.sample(r); }),
              0xf234f52au);
    const ZipfSampler code(384, 1.1);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return code.sample(r); }),
              0x5ddf557du);
    const ZipfSampler harmonic(65536, 1.0);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return harmonic.sample(r); }),
              0xa19afeb6u);
    const ZipfSampler data(1572864, 0.85);
    EXPECT_EQ(crcOfDraws([&](Rng &r) { return data.sample(r); }),
              0x39fe1d51u);
}

// One sampler re-targeted the way the generator re-targets its
// samplers each section: n grows inside and past the bound table,
// shrinks, drops to 1 and comes back, then s changes. Every step must
// draw what a freshly constructed ZipfSampler(n, s) draws; the pin was
// recorded from fresh samplers.
TEST(Rng, GoldenZipfRetargetStream)
{
    const std::pair<std::uint64_t, double> steps[] = {
        {256, 1.2},       {384, 1.2},  {8192, 1.2}, {200, 1.2},
        {1, 1.2},         {300, 1.2},  {1, 0.85},   {5000, 0.85},
        {1572864, 0.85}, {3000, 0.85}};
    Rng rng(20070425);
    Crc32 crc;
    ZipfSampler zipf;
    for (const auto &[n, s] : steps) {
        zipf.setParams(n, s);
        for (int i = 0; i < 512; ++i)
            crcWord(crc, zipf.sample(rng));
    }
    EXPECT_EQ(crc.value(), 0xcabc80bdu);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(71);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto copy = v;
    rng.shuffle(copy);
    EXPECT_FALSE(std::equal(v.begin(), v.end(), copy.begin()));
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Rng, ShuffleEmptyAndSingleton)
{
    Rng rng(73);
    std::vector<int> empty;
    rng.shuffle(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<int> one{42};
    rng.shuffle(one);
    EXPECT_EQ(one, std::vector<int>{42});
}

} // namespace
} // namespace mtperf
