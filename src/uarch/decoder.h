/**
 * @file
 * Instruction-length decoder model (LCP stalls).
 *
 * On Core 2, an operand-size-changing prefix (a "length changing
 * prefix", e.g. 66h before an instruction with an immediate) defeats
 * the pre-decoder's length speculation and costs a multi-cycle stall
 * (ILD_STALL). Workloads compiled with 16-bit immediates — the paper
 * calls out 403.gcc — hit this repeatedly. The model charges a fixed
 * pre-decode bubble per LCP-marked instruction.
 *
 * Decode results are memoized in a small direct-mapped cache keyed by
 * instruction identity (pc): re-decoding a hot loop body reduces to a
 * tag compare instead of re-deriving the bubble. The cached entry is
 * validated against the op's hasLcp flag, so a pc whose encoding
 * changes (self-modifying workloads, aliased synthetic pcs) never
 * serves a stale bubble — results are bit-identical with the cache on,
 * off, or any size. Statistics (lcpStalls) are charged per dynamic
 * instruction either way.
 *
 * decode() counts in this object only. The process-wide
 * decode.cache_{lookups,hits,misses} counters receive the decoder's
 * unpublished counts every kPublishBatch lookups, on reset() and on
 * destruction, so simulating threads do not share a cache line per
 * instruction, and the global totals are exact once every decoder has
 * been reset or destroyed.
 */

#ifndef MTPERF_UARCH_DECODER_H_
#define MTPERF_UARCH_DECODER_H_

#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Decoder timing parameters. */
struct DecoderConfig
{
    /** Pre-decode bubble per length-changing prefix, in cycles. */
    Cycle lcpStallCycles = 6;

    /**
     * Decoded-op cache capacity (entries, rounded up to a power of
     * two). 0 disables memoization; hit/miss accounting then reports
     * every decode as a miss.
     */
    std::size_t decodeCacheEntries = 2048;
};

/** Front-end length-decoder model: counts and charges LCP stalls. */
class Decoder
{
  public:
    explicit Decoder(const DecoderConfig &config = {});

    /** Publishes the counts not yet added to the global counters. */
    ~Decoder();

    // A copy, or a moved-from decoder, would publish the same counts
    // twice.
    Decoder(const Decoder &) = delete;
    Decoder &operator=(const Decoder &) = delete;
    Decoder(Decoder &&) = delete;
    Decoder &operator=(Decoder &&) = delete;

    /** Lookups between two publishes to the global counters. */
    static constexpr std::uint64_t kPublishBatch = 65536;

    /**
     * Account for one fetched instruction.
     * @return the decode bubble in cycles (0 for ordinary encodings).
     */
    Cycle decode(const MicroOp &op);

    /** Publish, then clear statistics and the decoded-op cache. */
    void reset();

    std::uint64_t lcpStalls() const { return lcpStalls_; }

    /** @name Decode-cache accounting (hits + misses == lookups). */
    ///@{
    std::uint64_t cacheLookups() const { return cacheLookups_; }
    std::uint64_t cacheHits() const { return cacheHits_; }
    std::uint64_t cacheMisses() const { return cacheMisses_; }
    ///@}

  private:
    /** One memoized decode; pc == kEmptyTag means never filled. */
    struct CacheEntry
    {
        Addr pc = kEmptyTag;
        bool hasLcp = false;
        Cycle bubble = 0;
    };

    static constexpr Addr kEmptyTag = ~Addr{0};

    /** Add the counts since the last publish to the global counters. */
    void publish();

    DecoderConfig config_;
    std::uint64_t lcpStalls_ = 0;
    std::uint64_t cacheLookups_ = 0;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;
    /** The part of the three counts above already published. */
    std::uint64_t publishedLookups_ = 0;
    std::uint64_t publishedHits_ = 0;
    std::uint64_t publishedMisses_ = 0;
    std::vector<CacheEntry> cache_; //!< direct-mapped, power-of-two
    std::size_t indexMask_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_DECODER_H_
