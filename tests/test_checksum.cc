/**
 * @file
 * Tests for the CRC32 checksum: the standard check value, the
 * slicing-by-8 loop against a plain bytewise reference at every length
 * and alignment that matters, and incremental updates.
 */

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"

namespace mtperf {
namespace {

/** The textbook bytewise CRC32 (polynomial 0xEDB88320), one bit at a time. */
std::uint32_t
referenceCrc32(const unsigned char *data, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
}

/** @p n seeded pseudo-random bytes. */
std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> bytes(n);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next());
    return bytes;
}

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32Hex(crc32("123456789")), "cbf43926");
}

TEST(Crc32, MatchesBytewiseAtEveryShortLengthAndAlignment)
{
    // 8 bytes of slack before the data, so each start offset 0..7
    // takes every alignment the eight-byte loop can meet.
    const auto bytes = randomBytes(64 + 8, 1);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t n = 0; n <= 64; ++n) {
            const unsigned char *data = bytes.data() + offset;
            EXPECT_EQ(crc32(data, n), referenceCrc32(data, n))
                << "offset " << offset << " length " << n;
        }
    }
}

TEST(Crc32, MatchesBytewiseOnAFrameAndAMebibyte)
{
    // A 64-row PREDICT frame is about 10 KB; the counter CSV about 1 MB.
    for (const std::size_t n : {std::size_t{10280}, std::size_t{1} << 20}) {
        const auto bytes = randomBytes(n + 8, n);
        for (std::size_t offset = 0; offset < 8; ++offset) {
            const unsigned char *data = bytes.data() + offset;
            EXPECT_EQ(crc32(data, n), referenceCrc32(data, n))
                << "offset " << offset << " length " << n;
        }
    }
}

TEST(Crc32, SplitUpdatesEqualTheOneShotValue)
{
    const auto bytes = randomBytes(100, 7);
    const std::uint32_t whole = crc32(bytes.data(), bytes.size());
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        Crc32 crc;
        crc.update(bytes.data(), split);
        crc.update(bytes.data() + split, bytes.size() - split);
        EXPECT_EQ(crc.value(), whole) << "split at " << split;
    }
}

} // namespace
} // namespace mtperf
