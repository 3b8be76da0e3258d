#include "uarch/decoder.h"

#include <sstream>

#include "obs/metrics.h"

namespace mtperf::uarch {

namespace {

std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

void
registerDecodeCacheInvariant()
{
    static const bool once = [] {
        obs::registerInvariant("decode.cache_accounting", [] {
            const std::uint64_t lookups =
                obs::counter("decode.cache_lookups").value();
            const std::uint64_t hits =
                obs::counter("decode.cache_hits").value();
            const std::uint64_t misses =
                obs::counter("decode.cache_misses").value();
            if (hits + misses == lookups)
                return std::string();
            std::ostringstream os;
            os << "decode.cache_hits=" << hits
               << " + decode.cache_misses=" << misses
               << " != decode.cache_lookups=" << lookups;
            return os.str();
        });
        return true;
    }();
    (void)once;
}

} // namespace

Decoder::Decoder(const DecoderConfig &config) : config_(config)
{
    if (config_.decodeCacheEntries > 0) {
        const std::size_t entries =
            roundUpPow2(config_.decodeCacheEntries);
        cache_.assign(entries, CacheEntry{});
        indexMask_ = entries - 1;
    }
    registerDecodeCacheInvariant();
}

Decoder::~Decoder()
{
    publish();
}

void
Decoder::publish()
{
    static obs::Counter &lookups = obs::counter("decode.cache_lookups");
    static obs::Counter &hits = obs::counter("decode.cache_hits");
    static obs::Counter &misses = obs::counter("decode.cache_misses");

    lookups.add(cacheLookups_ - publishedLookups_);
    hits.add(cacheHits_ - publishedHits_);
    misses.add(cacheMisses_ - publishedMisses_);
    publishedLookups_ = cacheLookups_;
    publishedHits_ = cacheHits_;
    publishedMisses_ = cacheMisses_;
}

Cycle
Decoder::decode(const MicroOp &op)
{
    ++cacheLookups_;

    Cycle bubble;
    if (!cache_.empty()) {
        // Instruction pcs are word-spaced, so drop the two always-zero
        // low bits before direct-mapping.
        CacheEntry &entry = cache_[(op.pc >> 2) & indexMask_];
        if (entry.pc == op.pc && entry.hasLcp == op.hasLcp) {
            ++cacheHits_;
            bubble = entry.bubble;
        } else {
            ++cacheMisses_;
            bubble = op.hasLcp ? config_.lcpStallCycles : 0;
            entry = {op.pc, op.hasLcp, bubble};
        }
    } else {
        ++cacheMisses_;
        bubble = op.hasLcp ? config_.lcpStallCycles : 0;
    }
    // Publish after the hit or miss is counted, so every publish keeps
    // hits + misses == lookups in the global counters.
    if (cacheLookups_ - publishedLookups_ == kPublishBatch)
        publish();

    // Stall statistics are per dynamic instruction, hit or miss.
    if (op.hasLcp)
        ++lcpStalls_;
    return bubble;
}

void
Decoder::reset()
{
    publish();
    lcpStalls_ = 0;
    cacheLookups_ = 0;
    cacheHits_ = 0;
    cacheMisses_ = 0;
    publishedLookups_ = 0;
    publishedHits_ = 0;
    publishedMisses_ = 0;
    if (!cache_.empty())
        cache_.assign(cache_.size(), CacheEntry{});
}

} // namespace mtperf::uarch
