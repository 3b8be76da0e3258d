/**
 * @file
 * Load/store queue model for store-forwarding hazards.
 *
 * Core 2 loads that interact badly with in-flight stores stall and
 * re-issue; the PMU distinguishes three cases the paper uses as
 * predictors: LOAD_BLOCK.STA (an older store's address is unknown),
 * LOAD_BLOCK.STD (the matching store's data is not ready to forward)
 * and LOAD_BLOCK.OVERLAP_STORE (a partial overlap that cannot forward
 * at all and must wait for the store to drain). The model keeps a
 * small buffer of recent stores and classifies each load against it.
 *
 * Most loads touch no buffered store, so the queue also keeps two
 * summaries that let such a load skip the buffer walk: a count of
 * buffered stores per hashed 8-byte granule, and the last sequence
 * number at which a slow-address store can still block. A load whose
 * granules are all uncounted and that lies past that horizon gets the
 * empty result the walk would have returned.
 */

#ifndef MTPERF_UARCH_LSQ_H_
#define MTPERF_UARCH_LSQ_H_

#include <array>
#include <cstdint>
#include <vector>

#include "uarch/types.h"

namespace mtperf::uarch {

/** Load/store queue timing parameters. */
struct LsqConfig
{
    std::uint32_t storeBufferEntries = 20; //!< tracked in-flight stores
    std::uint32_t staWindowOps = 4;  //!< ops until a slow address resolves
    std::uint32_t stdWindowOps = 2;  //!< ops until store data can forward
    Cycle staBlockCycles = 5;
    Cycle stdBlockCycles = 6;
    Cycle overlapBlockCycles = 5;
};

/** Outcome of checking one load against the store buffer. */
struct LoadBlockResult
{
    Cycle penalty = 0;
    bool sta = false;
    bool std = false;
    bool overlap = false;
};

/** Store buffer + load-block classifier. */
class LoadStoreQueue
{
  public:
    explicit LoadStoreQueue(const LsqConfig &config = {});

    /**
     * Record a store entering the buffer.
     * @param seq the dynamic instruction sequence number.
     */
    void recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                     std::uint64_t seq);

    /** Classify a load against buffered older stores. */
    LoadBlockResult checkLoad(Addr addr, std::uint8_t size,
                              std::uint64_t seq);

    /** Drop all buffered stores and clear statistics. */
    void reset();

    std::uint64_t staBlocks() const { return staBlocks_; }
    std::uint64_t stdBlocks() const { return stdBlocks_; }
    std::uint64_t overlapBlocks() const { return overlapBlocks_; }

  private:
    /** Hashed granules: 256 x 8 B, so granules 2 KiB apart alias. */
    static constexpr std::size_t kGranules = 256;

    struct StoreEntry
    {
        Addr addr = 0;
        std::uint8_t size = 0;
        bool addrSlow = false;
        std::uint64_t seq = 0;
        bool valid = false;
    };

    /** Add @p delta (+1 or -1) to the count of every granule
     *  @p store covers. */
    void countGranules(const StoreEntry &store, int delta);

    /** The scan behind checkLoad, run when the summaries cannot
     *  prove the load independent. */
    LoadBlockResult walk(Addr addr, std::uint8_t size, std::uint64_t seq);

    LsqConfig config_;
    std::vector<StoreEntry> buffer_; //!< ring of recent stores
    std::size_t head_ = 0;
    /**
     * Buffered stores covering each hashed granule of
     * [addr, addr + max(size, 1)). A store spans at most 33 granules,
     * fewer than kGranules, so no count exceeds storeBufferEntries.
     */
    std::array<std::uint32_t, kGranules> granuleStores_{};
    /** Largest seq + staWindowOps (saturating) of any slow-address
     *  store since reset(): a load with a larger seq is past every
     *  slow store's window. */
    std::uint64_t slowHorizon_ = 0;
    std::uint64_t staBlocks_ = 0;
    std::uint64_t stdBlocks_ = 0;
    std::uint64_t overlapBlocks_ = 0;
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_LSQ_H_
