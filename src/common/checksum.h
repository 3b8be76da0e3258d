/**
 * @file
 * CRC32 (IEEE 802.3, polynomial 0xEDB88320) integrity checksums.
 *
 * Every persistent artifact the pipeline writes (binary traces, model
 * files, dataset CSVs, checkpoints) carries a CRC32 so that readers
 * can distinguish "file ends here by design" from "file was truncated
 * or bit-flipped". CRC32 detects all single-bit errors and all burst
 * errors up to 32 bits, which is exactly the corruption model the
 * corruption-corpus tests rehearse.
 */

#ifndef MTPERF_COMMON_CHECKSUM_H_
#define MTPERF_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mtperf {

/**
 * Continue a CRC32 over @p n bytes at @p data from prior value @p crc.
 * Folds eight bytes per step (slicing-by-8) with a bytewise tail; the
 * values are those of the plain bytewise algorithm at any length and
 * alignment.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t n);

/** One-shot CRC32 of a byte range. */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    return crc32Update(0, data, n);
}

/** One-shot CRC32 of a string's bytes. */
inline std::uint32_t
crc32(std::string_view text)
{
    return crc32Update(0, text.data(), text.size());
}

/** Fixed-width lower-case hex rendering ("0badf00d"). */
std::string crc32Hex(std::uint32_t crc);

/**
 * Parse crc32Hex() output back. @return false if @p text is not an
 * 8-digit hex word.
 */
bool parseCrc32Hex(std::string_view text, std::uint32_t &out);

/** Incremental CRC32 accumulator for streaming writers. */
class Crc32
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        crc_ = crc32Update(crc_, data, n);
    }

    void update(std::string_view text) { update(text.data(), text.size()); }

    std::uint32_t value() const { return crc_; }
    std::string hex() const { return crc32Hex(crc_); }

  private:
    std::uint32_t crc_ = 0;
};

} // namespace mtperf

#endif // MTPERF_COMMON_CHECKSUM_H_
