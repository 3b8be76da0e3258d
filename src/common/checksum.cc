#include "common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace mtperf {

namespace {

using Crc32Table = std::array<std::uint32_t, 256>;

/**
 * Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
 * kTables[k][b] is the CRC contribution of byte b followed by k zero
 * bytes, so eight table lookups fold eight input bytes at once.
 */
constexpr std::array<Crc32Table, 8>
makeTables()
{
    std::array<Crc32Table, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr auto kTables = makeTables();

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    if constexpr (std::endian::native == std::endian::little) {
        // Words are read through memcpy: the input has no alignment.
        for (; n >= 8; bytes += 8, n -= 8) {
            std::uint32_t low, high;
            std::memcpy(&low, bytes, 4);
            std::memcpy(&high, bytes + 4, 4);
            low ^= c;
            c = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
                kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
                kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
                kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
        }
    }
    for (; n > 0; ++bytes, --n)
        c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
crc32Hex(std::uint32_t crc)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[i] = digits[crc & 0xFu];
        crc >>= 4;
    }
    return out;
}

bool
parseCrc32Hex(std::string_view text, std::uint32_t &out)
{
    if (text.size() != 8)
        return false;
    std::uint32_t value = 0;
    for (char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            value |= static_cast<std::uint32_t>(c - 'A' + 10);
        else
            return false;
    }
    out = value;
    return true;
}

} // namespace mtperf
