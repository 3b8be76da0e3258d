#include "uarch/lsq.h"

#include <algorithm>

#include "common/logging.h"

namespace mtperf::uarch {

namespace {

/** Number of 8-byte granules [addr, addr + max(size, 1)) touches:
 *  1 to 33. A zero-size access still claims the granule of @p addr,
 *  because the walk can classify it as a partial overlap. */
std::size_t
granuleSpan(Addr addr, std::uint8_t size)
{
    return static_cast<std::size_t>(
        ((addr & 7) + std::max<Addr>(size, 1) + 7) >> 3);
}

} // namespace

LoadStoreQueue::LoadStoreQueue(const LsqConfig &config) : config_(config)
{
    if (config_.storeBufferEntries == 0)
        mtperf_fatal("LSQ: store buffer must have at least one entry");
    buffer_.assign(config_.storeBufferEntries, StoreEntry{});
}

void
LoadStoreQueue::countGranules(const StoreEntry &store, int delta)
{
    const Addr first = store.addr >> 3;
    const std::size_t span = granuleSpan(store.addr, store.size);
    for (std::size_t i = 0; i < span; ++i)
        granuleStores_[(first + i) % kGranules] +=
            static_cast<std::uint32_t>(delta);
}

void
LoadStoreQueue::recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                            std::uint64_t seq)
{
    StoreEntry &entry = buffer_[head_];
    if (entry.valid)
        countGranules(entry, -1);
    entry = {addr, size, addr_slow, seq, true};
    countGranules(entry, +1);
    if (addr_slow) {
        const std::uint64_t horizon =
            seq + std::min<std::uint64_t>(config_.staWindowOps, ~seq);
        slowHorizon_ = std::max(slowHorizon_, horizon);
    }
    if (++head_ == buffer_.size())
        head_ = 0;
}

LoadBlockResult
LoadStoreQueue::checkLoad(Addr addr, std::uint8_t size, std::uint64_t seq)
{
    // Past every slow store's window, a load can only be blocked by a
    // store sharing one of its bytes, hence one of its granules.
    if (seq > slowHorizon_) {
        const Addr first = addr >> 3;
        const std::size_t span = granuleSpan(addr, size);
        std::size_t i = 0;
        while (i < span && granuleStores_[(first + i) % kGranules] == 0)
            ++i;
        if (i == span)
            return {};
    }
    return walk(addr, size, seq);
}

LoadBlockResult
LoadStoreQueue::walk(Addr addr, std::uint8_t size, std::uint64_t seq)
{
    LoadBlockResult result;
    const Addr load_begin = addr;
    const Addr load_end = addr + size;

    // Scan from the youngest store backwards; the nearest interacting
    // store determines the outcome, matching how the hardware resolves
    // the youngest-older-store dependence. The slot steps down from
    // the one before head_ and wraps from 0 to the last slot.
    std::size_t slot = head_;
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
        slot = (slot == 0 ? buffer_.size() : slot) - 1;
        const StoreEntry &store = buffer_[slot];
        if (!store.valid || store.seq >= seq)
            continue;
        const std::uint64_t age = seq - store.seq;

        // An unresolved store address blocks every younger load: the
        // load cannot prove independence until the address computes.
        if (store.addrSlow && age <= config_.staWindowOps) {
            result.sta = true;
            result.penalty += config_.staBlockCycles;
            ++staBlocks_;
            break;
        }

        const Addr store_begin = store.addr;
        const Addr store_end = store.addr + store.size;
        const bool disjoint =
            load_end <= store_begin || store_end <= load_begin;
        if (disjoint)
            continue;

        const bool covers = store_begin <= load_begin &&
                            store_end >= load_end;
        if (!covers) {
            // Partial overlap can never forward; the load waits for
            // the store to drain to the cache.
            result.overlap = true;
            result.penalty += config_.overlapBlockCycles;
            ++overlapBlocks_;
        } else if (age <= config_.stdWindowOps) {
            // Full cover but the store data is not produced yet.
            result.std = true;
            result.penalty += config_.stdBlockCycles;
            ++stdBlocks_;
        }
        // Full cover with ready data forwards for free.
        break;
    }
    return result;
}

void
LoadStoreQueue::reset()
{
    for (auto &entry : buffer_)
        entry = StoreEntry{};
    head_ = 0;
    granuleStores_.fill(0);
    slowHorizon_ = 0;
    staBlocks_ = 0;
    stdBlocks_ = 0;
    overlapBlocks_ = 0;
}

} // namespace mtperf::uarch
