#include "uarch/tlb.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace mtperf::uarch {

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    if (config_.pageBytes < 2 ||
        (config_.pageBytes & (config_.pageBytes - 1)) != 0) {
        mtperf_fatal("TLB: page size must be a power of two of at least "
                     "2 bytes");
    }
    if (config_.associativity == 0 ||
        config_.entries % config_.associativity != 0) {
        mtperf_fatal("TLB: entries must be a multiple of associativity");
    }
    numSets_ = config_.entries / config_.associativity;
    if ((numSets_ & (numSets_ - 1)) != 0)
        mtperf_fatal("TLB: set count must be a power of two");
    pageShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(config_.pageBytes)));
    vpns_.assign(config_.entries, kInvalidVpn);
    lastUse_.assign(config_.entries, 0);
}

bool
Tlb::access(Addr addr)
{
    ++accesses_;
    ++useClock_;
    const Addr vpn = addr >> pageShift_;
    const std::size_t first =
        static_cast<std::size_t>(vpn & (numSets_ - 1)) *
        config_.associativity;
    Addr *vpns = vpns_.data() + first;
    std::uint64_t *last_use = lastUse_.data() + first;

    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
        if (vpns[w] == vpn) {
            last_use[w] = useClock_;
            return true;
        }
    }

    // Miss: fill the first empty way after way 0, else evict the LRU
    // way (lowest index on ties).
    ++misses_;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < config_.associativity; ++w) {
        if (vpns[w] == kInvalidVpn) {
            victim = w;
            break;
        }
        if (last_use[w] < last_use[victim])
            victim = w;
    }
    vpns[victim] = vpn;
    last_use[victim] = useClock_;
    return false;
}

void
Tlb::reset()
{
    std::fill(vpns_.begin(), vpns_.end(), kInvalidVpn);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    useClock_ = 0;
    accesses_ = 0;
    misses_ = 0;
}

TwoLevelDtlb::TwoLevelDtlb(const TlbConfig &l0, const TlbConfig &main)
    : l0_(l0), main_(main)
{
}

DtlbLoadResult
TwoLevelDtlb::translateLoad(Addr addr)
{
    DtlbLoadResult result;
    result.l0Hit = l0_.access(addr);
    if (result.l0Hit) {
        result.mainHit = true; // inclusive: L0 content is in main
        return result;
    }
    result.mainHit = main_.access(addr);
    return result;
}

bool
TwoLevelDtlb::translateStore(Addr addr)
{
    return main_.access(addr);
}

void
TwoLevelDtlb::reset()
{
    l0_.reset();
    main_.reset();
}

} // namespace mtperf::uarch
