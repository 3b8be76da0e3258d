/**
 * @file
 * A set-associative cache model with true-LRU replacement.
 *
 * The model tracks tags only — no data — because the simulator needs
 * hit/miss behaviour and counts, not contents. An optional next-line
 * prefetcher approximates the Core 2 L2 streamer: on a demand miss it
 * also fills the sequentially next line, so strided workloads expose
 * fewer demand misses than pointer-chasing ones, as on real hardware.
 */

#ifndef MTPERF_UARCH_CACHE_H_
#define MTPERF_UARCH_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Geometry and behaviour of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t associativity = 8;
    std::uint32_t lineBytes = kLineBytes;
    bool nextLinePrefetch = false;
    /** Lines fetched ahead on a demand miss when prefetching is on. */
    std::uint32_t prefetchDegree = 1;
};

/**
 * Outcome of a tracked cache lookup: which physical line slot was
 * touched or filled, and what (if anything) was displaced. A shared
 * cache uses this to keep per-slot owner bookkeeping.
 */
struct CacheAccessOutcome
{
    bool hit = false;
    std::uint32_t lineIndex = 0; //!< set * associativity + way
    bool evictedValid = false;   //!< a valid line was displaced
    Addr evictedLineAddr = 0;    //!< its line address (addr / lineBytes)
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up (and on miss, fill) the line containing @p addr.
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Like access(), but reports the touched slot and any eviction,
     * and never triggers the internal next-line prefetcher — callers
     * that need tracking (the shared L2) run their own streamer.
     */
    CacheAccessOutcome accessTracked(Addr addr);

    /** True if the line containing @p addr is resident (no update). */
    bool probe(Addr addr) const;

    /** Fill the line containing @p addr without counting a demand access. */
    void fill(Addr addr);

    /** Like fill(), but reports the touched slot and any eviction. */
    CacheAccessOutcome fillTracked(Addr addr);

    /** Line address (tag granularity) of @p addr. */
    Addr lineAddrOf(Addr addr) const { return addr >> lineShift_; }

    /** Invalidate all lines and clear statistics. */
    void reset();

    const CacheConfig &config() const { return config_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t prefetchFills() const { return prefetchFills_; }

    /** Demand miss ratio; 0 when no accesses have been made. */
    double missRatio() const;

    std::uint32_t numSets() const { return numSets_; }

  private:
    /**
     * Tag of an empty way. Lines are at least 2 bytes, so no line
     * address (addr >> lineShift_) reaches it.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::uint32_t setIndex(Addr line_addr) const;
    bool lookup(Addr addr, bool demand);
    CacheAccessOutcome lookupTracked(Addr addr, bool demand);

    CacheConfig config_;
    std::uint32_t numSets_ = 0;
    std::uint32_t lineShift_ = 0;
    /** Per-way state, numSets * associativity each, set-major, so a
     *  set's tags are contiguous (an 8-way set's fill one host line). */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchFills_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_CACHE_H_
