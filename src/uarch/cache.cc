#include "uarch/cache.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace mtperf::uarch {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (config_.lineBytes < 2 ||
        (config_.lineBytes & (config_.lineBytes - 1)) != 0) {
        mtperf_fatal("cache '", config_.name,
                     "': line size must be a power of two of at least "
                     "2 bytes");
    }
    if (config_.associativity == 0)
        mtperf_fatal("cache '", config_.name, "': zero associativity");
    const std::uint64_t num_lines = config_.sizeBytes / config_.lineBytes;
    if (num_lines == 0 || num_lines % config_.associativity != 0) {
        mtperf_fatal("cache '", config_.name,
                     "': size must be a multiple of assoc * line size");
    }
    numSets_ = static_cast<std::uint32_t>(num_lines /
                                          config_.associativity);
    if ((numSets_ & (numSets_ - 1)) != 0)
        mtperf_fatal("cache '", config_.name,
                     "': set count must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(config_.lineBytes)));
    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * config_.associativity;
    tags_.assign(ways, kInvalidTag);
    lastUse_.assign(ways, 0);
}

std::uint32_t
Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::uint32_t>(line_addr & (numSets_ - 1));
}

CacheAccessOutcome
Cache::lookupTracked(Addr addr, bool demand)
{
    const Addr line_addr = addr >> lineShift_;
    const std::size_t first =
        static_cast<std::size_t>(setIndex(line_addr)) *
        config_.associativity;
    Addr *tags = tags_.data() + first;
    std::uint64_t *last_use = lastUse_.data() + first;
    ++useClock_;

    CacheAccessOutcome out;
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
        if (tags[w] == line_addr) {
            last_use[w] = useClock_;
            out.hit = true;
            out.lineIndex = static_cast<std::uint32_t>(first + w);
            return out;
        }
    }

    // Miss: fill the first empty way after way 0, else evict the LRU
    // way (lowest index on ties).
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < config_.associativity; ++w) {
        if (tags[w] == kInvalidTag) {
            victim = w;
            break;
        }
        if (last_use[w] < last_use[victim])
            victim = w;
    }
    if (tags[victim] != kInvalidTag) {
        out.evictedValid = true;
        out.evictedLineAddr = tags[victim];
    }
    tags[victim] = line_addr;
    last_use[victim] = useClock_;
    if (!demand)
        ++prefetchFills_;
    out.lineIndex = static_cast<std::uint32_t>(first + victim);
    return out;
}

bool
Cache::lookup(Addr addr, bool demand)
{
    return lookupTracked(addr, demand).hit;
}

bool
Cache::access(Addr addr)
{
    ++accesses_;
    const bool hit = lookup(addr, true);
    if (!hit) {
        ++misses_;
        if (config_.nextLinePrefetch) {
            for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d)
                lookup(addr + d * std::uint64_t(config_.lineBytes),
                       false);
        }
    }
    return hit;
}

CacheAccessOutcome
Cache::accessTracked(Addr addr)
{
    ++accesses_;
    CacheAccessOutcome out = lookupTracked(addr, true);
    if (!out.hit)
        ++misses_;
    return out;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line_addr = addr >> lineShift_;
    const Addr *tags =
        tags_.data() + static_cast<std::size_t>(setIndex(line_addr)) *
                           config_.associativity;
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
        if (tags[w] == line_addr)
            return true;
    }
    return false;
}

void
Cache::fill(Addr addr)
{
    lookup(addr, false);
}

CacheAccessOutcome
Cache::fillTracked(Addr addr)
{
    return lookupTracked(addr, false);
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    useClock_ = 0;
    accesses_ = 0;
    misses_ = 0;
    prefetchFills_ = 0;
}

double
Cache::missRatio() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(accesses_);
}

} // namespace mtperf::uarch
