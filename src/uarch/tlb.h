/**
 * @file
 * Translation lookaside buffer models.
 *
 * Core 2 translates loads through a tiny L0 DTLB backed by the main
 * DTLB; stores use the main DTLB directly, and instruction fetch has
 * its own ITLB. The paper's DTLB metrics distinguish exactly these
 * paths (DTLB_MISSES.L0_MISS_LD, .MISS_LD, .ANY, ITLB.MISS_RETIRED),
 * so the model keeps the same split.
 */

#ifndef MTPERF_UARCH_TLB_H_
#define MTPERF_UARCH_TLB_H_

#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Geometry of one TLB level. */
struct TlbConfig
{
    std::uint32_t entries = 256;
    std::uint32_t associativity = 4;
    std::uint32_t pageBytes = kPageBytes;
};

/** A set-associative TLB with LRU replacement (tags only). */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Look up (and on miss, fill) the page of @p addr. @return hit. */
    bool access(Addr addr);

    /** Invalidate all entries and statistics. */
    void reset();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** VPN of an empty way. Pages are at least 2 bytes, so no VPN
     *  (addr >> pageShift_) reaches it. */
    static constexpr Addr kInvalidVpn = ~Addr{0};

    TlbConfig config_;
    std::uint32_t numSets_ = 0;
    std::uint32_t pageShift_ = 0;
    /** Per-way state, entries each, set-major. */
    std::vector<Addr> vpns_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/** Result of a load translation through the two-level DTLB. */
struct DtlbLoadResult
{
    bool l0Hit = false;   //!< hit in the tiny L0 load DTLB
    bool mainHit = false; //!< hit in the main DTLB (when L0 missed)
};

/**
 * Core-2-like data TLB: 16-entry fully associative L0 for loads in
 * front of a 256-entry main DTLB shared by loads and stores.
 */
class TwoLevelDtlb
{
  public:
    /** @param l0 geometry of the load L0; @param main main DTLB. */
    TwoLevelDtlb(const TlbConfig &l0, const TlbConfig &main);

    /** Translate a load address. */
    DtlbLoadResult translateLoad(Addr addr);

    /** Translate a store address. @return main DTLB hit. */
    bool translateStore(Addr addr);

    void reset();

  private:
    Tlb l0_;
    Tlb main_;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_TLB_H_
