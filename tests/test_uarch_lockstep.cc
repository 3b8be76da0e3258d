/**
 * @file
 * Lockstep tests of the simulator's bookkeeping shortcuts against the
 * straightforward models they replaced.
 *
 * The load/store queue answers most loads from two summaries instead
 * of walking the store buffer, and the cache and TLB keep their per-way
 * state as parallel tag and LRU arrays with an invalid-tag sentinel
 * instead of {tag, lastUse, valid} records. Each must behave exactly
 * like the plain model, down to the way it fills and the line it
 * evicts, because every simulated counter depends on it. The plain
 * models are kept below as test-local reference copies, and random and
 * adversarial operation streams are run through both, comparing every
 * result and statistic after every call.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/cache.h"
#include "uarch/lsq.h"
#include "uarch/tlb.h"

namespace mtperf::uarch {
namespace {

// ------------------------------------------------------------------
// Reference models
// ------------------------------------------------------------------

/** The store-buffer walk on every load, without early-out. */
class RefLsq
{
  public:
    explicit RefLsq(const LsqConfig &config)
        : config_(config), buffer_(config.storeBufferEntries)
    {
    }

    void
    recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                std::uint64_t seq)
    {
        buffer_[head_] = {addr, size, addr_slow, seq, true};
        if (++head_ == buffer_.size())
            head_ = 0;
    }

    LoadBlockResult
    checkLoad(Addr addr, std::uint8_t size, std::uint64_t seq)
    {
        LoadBlockResult result;
        const Addr load_end = addr + size;
        std::size_t slot = head_;
        for (std::size_t i = 0; i < buffer_.size(); ++i) {
            slot = (slot == 0 ? buffer_.size() : slot) - 1;
            const Entry &store = buffer_[slot];
            if (!store.valid || store.seq >= seq)
                continue;
            const std::uint64_t age = seq - store.seq;
            if (store.addrSlow && age <= config_.staWindowOps) {
                result.sta = true;
                result.penalty += config_.staBlockCycles;
                ++staBlocks;
                break;
            }
            const Addr store_end = store.addr + store.size;
            if (load_end <= store.addr || store_end <= addr)
                continue;
            if (!(store.addr <= addr && store_end >= load_end)) {
                result.overlap = true;
                result.penalty += config_.overlapBlockCycles;
                ++overlapBlocks;
            } else if (age <= config_.stdWindowOps) {
                result.std = true;
                result.penalty += config_.stdBlockCycles;
                ++stdBlocks;
            }
            break;
        }
        return result;
    }

    void
    reset()
    {
        buffer_.assign(buffer_.size(), Entry{});
        head_ = 0;
        staBlocks = stdBlocks = overlapBlocks = 0;
    }

    std::uint64_t staBlocks = 0;
    std::uint64_t stdBlocks = 0;
    std::uint64_t overlapBlocks = 0;

  private:
    struct Entry
    {
        Addr addr = 0;
        std::uint8_t size = 0;
        bool addrSlow = false;
        std::uint64_t seq = 0;
        bool valid = false;
    };

    LsqConfig config_;
    std::vector<Entry> buffer_;
    std::size_t head_ = 0;
};

/** Set-associative LRU cache over {tag, lastUse, valid} records. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config) : config_(config)
    {
        const std::uint64_t lines = config.sizeBytes / config.lineBytes;
        numSets_ = static_cast<std::uint32_t>(lines / config.associativity);
        while ((Addr{1} << lineShift_) < config.lineBytes)
            ++lineShift_;
        lines_.assign(lines, Line{});
    }

    CacheAccessOutcome
    lookupTracked(Addr addr, bool demand)
    {
        const Addr line_addr = addr >> lineShift_;
        const std::uint32_t set =
            static_cast<std::uint32_t>(line_addr & (numSets_ - 1));
        Line *base = lines_.data() +
                     static_cast<std::size_t>(set) * config_.associativity;
        ++useClock_;
        CacheAccessOutcome out;
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].tag == line_addr) {
                base[w].lastUse = useClock_;
                out.hit = true;
                out.lineIndex = set * config_.associativity + w;
                return out;
            }
        }
        Line *victim = base;
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->valid) {
            out.evictedValid = true;
            out.evictedLineAddr = victim->tag;
        }
        *victim = {line_addr, useClock_, true};
        if (!demand)
            ++prefetchFills;
        out.lineIndex = static_cast<std::uint32_t>(victim - lines_.data());
        return out;
    }

    bool
    access(Addr addr)
    {
        ++accesses;
        const bool hit = lookupTracked(addr, true).hit;
        if (!hit) {
            ++misses;
            if (config_.nextLinePrefetch) {
                for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d)
                    lookupTracked(addr + d * std::uint64_t(config_.lineBytes),
                                  false);
            }
        }
        return hit;
    }

    CacheAccessOutcome
    accessTracked(Addr addr)
    {
        ++accesses;
        const CacheAccessOutcome out = lookupTracked(addr, true);
        if (!out.hit)
            ++misses;
        return out;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line_addr = addr >> lineShift_;
        const std::size_t set = line_addr & (numSets_ - 1);
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            const Line &line = lines_[set * config_.associativity + w];
            if (line.valid && line.tag == line_addr)
                return true;
        }
        return false;
    }

    void
    reset()
    {
        lines_.assign(lines_.size(), Line{});
        useClock_ = accesses = misses = prefetchFills = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetchFills = 0;

  private:
    struct Line
    {
        Addr tag = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::uint32_t numSets_ = 0;
    std::uint32_t lineShift_ = 0;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

/** Set-associative LRU TLB over {vpn, lastUse, valid} records. */
class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &config) : config_(config)
    {
        numSets_ = config.entries / config.associativity;
        while ((Addr{1} << pageShift_) < config.pageBytes)
            ++pageShift_;
        entries_.assign(config.entries, Entry{});
    }

    bool
    access(Addr addr)
    {
        ++accesses;
        ++useClock_;
        const Addr vpn = addr >> pageShift_;
        Entry *base = entries_.data() +
                      static_cast<std::size_t>(vpn & (numSets_ - 1)) *
                          config_.associativity;
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].vpn == vpn) {
                base[w].lastUse = useClock_;
                return true;
            }
        }
        ++misses;
        Entry *victim = base;
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        *victim = {vpn, useClock_, true};
        return false;
    }

    void
    reset()
    {
        entries_.assign(entries_.size(), Entry{});
        useClock_ = accesses = misses = 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        Addr vpn = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    TlbConfig config_;
    std::uint32_t numSets_ = 0;
    std::uint32_t pageShift_ = 0;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
};

// ------------------------------------------------------------------
// Load/store queue
// ------------------------------------------------------------------

/** Runs every operation on the model and the reference, comparing. */
class LsqPair
{
  public:
    explicit LsqPair(const LsqConfig &config) : lsq_(config), ref_(config)
    {
    }

    void
    store(Addr addr, std::uint8_t size, bool slow, std::uint64_t seq)
    {
        lsq_.recordStore(addr, size, slow, seq);
        ref_.recordStore(addr, size, slow, seq);
    }

    void
    load(Addr addr, std::uint8_t size, std::uint64_t seq)
    {
        const LoadBlockResult got = lsq_.checkLoad(addr, size, seq);
        const LoadBlockResult want = ref_.checkLoad(addr, size, seq);
        ASSERT_EQ(got.penalty, want.penalty) << where(addr, size, seq);
        ASSERT_EQ(got.sta, want.sta) << where(addr, size, seq);
        ASSERT_EQ(got.std, want.std) << where(addr, size, seq);
        ASSERT_EQ(got.overlap, want.overlap) << where(addr, size, seq);
        ASSERT_EQ(lsq_.staBlocks(), ref_.staBlocks);
        ASSERT_EQ(lsq_.stdBlocks(), ref_.stdBlocks);
        ASSERT_EQ(lsq_.overlapBlocks(), ref_.overlapBlocks);
        blocked_ += want.penalty > 0;
        ++loads_;
    }

    void
    reset()
    {
        lsq_.reset();
        ref_.reset();
    }

    std::uint64_t blocked() const { return blocked_; }
    std::uint64_t loads() const { return loads_; }

  private:
    static std::string
    where(Addr addr, std::uint8_t size, std::uint64_t seq)
    {
        return "load addr " + std::to_string(addr) + " size " +
               std::to_string(size) + " seq " + std::to_string(seq);
    }

    LoadStoreQueue lsq_;
    RefLsq ref_;
    std::uint64_t blocked_ = 0;
    std::uint64_t loads_ = 0;
};

/** A random stream of stores, loads and resets over a small region,
 *  so that loads meet stores, aliases and slow addresses often. */
void
runRandomLsqStream(const LsqConfig &config, std::uint64_t seed,
                   std::size_t ops)
{
    Rng rng(seed);
    LsqPair pair(config);
    const std::uint8_t sizes[] = {0, 1, 2, 4, 8, 8, 16, 255};
    std::uint64_t seq = 1;
    for (std::size_t i = 0; i < ops; ++i) {
        // A 256-byte window plus its aliases 2 KiB and 4 KiB away.
        const Addr addr = 0x10000 + rng.uniformInt(3) * 2048 +
                          rng.uniformInt(256);
        const auto size = sizes[rng.uniformInt(std::size(sizes))];
        seq += rng.uniformInt(4); // equal seqs happen too
        const double kind = rng.uniform();
        if (kind < 0.45) {
            pair.store(addr, size, rng.chance(0.1), seq);
        } else if (kind < 0.999) {
            // Mostly the current op, sometimes an older load.
            const std::uint64_t back =
                rng.chance(0.1)
                    ? rng.uniformInt(std::min<std::uint64_t>(seq, 40))
                    : 0;
            pair.load(addr, size, seq - back);
        } else {
            pair.reset();
        }
        if (testing::Test::HasFatalFailure())
            return;
    }
    // The stream must exercise the walk's outcomes, not just early-out.
    EXPECT_GT(pair.blocked(), pair.loads() / 50);
}

TEST(LsqLockstep, RandomStreamsMatchTheReferenceWalk)
{
    const std::uint32_t entries[] = {1, 2, 3, 20};
    std::uint64_t seed = 1;
    for (std::uint32_t n : entries) {
        for (std::uint32_t sta = 0; sta <= 6; sta += 3) {
            LsqConfig config;
            config.storeBufferEntries = n;
            config.staWindowOps = sta;
            config.stdWindowOps = 2;
            SCOPED_TRACE("entries " + std::to_string(n) + " sta window " +
                         std::to_string(sta));
            runRandomLsqStream(config, seed++, 40000);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(LsqLockstep, AdversarialStreamsMatchTheReferenceWalk)
{
    for (std::uint32_t entries : {1u, 2u, 3u, 20u}) {
        SCOPED_TRACE("entries " + std::to_string(entries));
        LsqConfig config;
        config.storeBufferEntries = entries;
        LsqPair pair(config);
        std::uint64_t seq = 100;

        // Granules 2 KiB apart share a counter but never a byte.
        pair.store(0x4000, 8, false, seq++);
        pair.load(0x4800, 8, seq++);
        pair.load(0x4000 + 4096, 4, seq++);
        pair.load(0x4004, 4, seq++); // covered: forwards or STD

        // Zero-size stores and loads: a zero-size store strictly
        // inside a load is a partial overlap; at its edge it is not.
        pair.store(0x5004, 0, false, seq++);
        pair.load(0x5000, 8, seq++);
        pair.load(0x5004, 4, seq++);
        pair.load(0x5004, 0, seq++);
        pair.store(0x5100, 255, false, seq++);
        pair.load(0x5150, 0, seq++);
        pair.load(0x5100 + 254, 1, seq++);
        pair.load(0x5100 + 255, 1, seq++);
        pair.load(0x50ff, 255, seq++);

        // Stores and loads straddling a 64-byte line and a granule.
        pair.store(0x603c, 8, false, seq++);
        pair.load(0x6040, 4, seq++);
        pair.load(0x603b, 2, seq++);
        pair.load(0x603c, 8, seq + 10);

        // A slow-address store blocks loads anywhere for exactly
        // staWindowOps ops, then nothing.
        const std::uint64_t slow = seq;
        pair.store(0x7000, 4, true, slow);
        for (std::uint64_t age = 0; age <= config.staWindowOps + 2; ++age)
            pair.load(0x9000, 4, slow + age);
        // An older load does not see the slow store.
        pair.load(0x9000, 4, slow - 1);

        // Overwritten entries stop counting: fill the ring with
        // disjoint stores, then load where the first one was.
        seq = slow + 100;
        pair.store(0xa000, 8, false, seq++);
        for (std::uint32_t i = 0; i < entries; ++i)
            pair.store(0xb000 + 64 * i, 8, false, seq++);
        pair.load(0xa000, 8, seq++);

        // reset() forgets stores and the slow horizon.
        pair.store(0xc000, 8, true, seq);
        pair.reset();
        pair.load(0xc000, 8, seq + 1);
        pair.store(0xc000, 8, false, seq + 2);
        pair.load(0xc000, 4, seq + 3);
        if (HasFatalFailure())
            return;
    }
}

TEST(LsqLockstep, WideStoreBuffersKeepExactCounts)
{
    // More stores over one granule than a byte-wide count could hold.
    LsqConfig config;
    config.storeBufferEntries = 600;
    LsqPair pair(config);
    std::uint64_t seq = 1;
    for (int i = 0; i < 1500; ++i) {
        pair.store(0x8000 + (i % 3) * 2048, 8, false, seq++);
        pair.load(0x8000, 8, seq++);
        pair.load(0x8800, 4, seq++);
        if (HasFatalFailure())
            return;
    }
}

// ------------------------------------------------------------------
// Cache and TLB
// ------------------------------------------------------------------

struct Geometry
{
    const char *name;
    std::uint64_t sizeBytes;
    std::uint32_t associativity;
    bool prefetch;
    std::uint32_t prefetchDegree;
};

// Without a printer GoogleTest names each case by the struct's raw
// bytes, which hold the name pointer and padding and so differ from
// run to run.
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.sizeBytes << " B " << g.associativity << "-way";
    if (g.prefetch)
        *os << " pf" << g.prefetchDegree;
}

class CacheLockstep : public testing::TestWithParam<Geometry>
{
};

void
expectSameOutcome(const CacheAccessOutcome &got,
                  const CacheAccessOutcome &want, Addr addr)
{
    ASSERT_EQ(got.hit, want.hit) << "addr " << addr;
    ASSERT_EQ(got.lineIndex, want.lineIndex) << "addr " << addr;
    ASSERT_EQ(got.evictedValid, want.evictedValid) << "addr " << addr;
    ASSERT_EQ(got.evictedLineAddr, want.evictedLineAddr) << "addr "
                                                         << addr;
}

TEST_P(CacheLockstep, MatchesTheReferenceModel)
{
    const Geometry &g = GetParam();
    CacheConfig config;
    config.name = g.name;
    config.sizeBytes = g.sizeBytes;
    config.associativity = g.associativity;
    config.lineBytes = 64;
    config.nextLinePrefetch = g.prefetch;
    config.prefetchDegree = g.prefetchDegree;
    Cache cache(config);
    RefCache ref(config);

    // Addresses over 3x the capacity, with a hot quarter, so sets fill,
    // evict and re-hit; plus the top of the address space.
    const std::uint64_t lines = 3 * g.sizeBytes / 64;
    Rng rng(g.sizeBytes * 131 + g.associativity * 7 + g.prefetch);
    for (int i = 0; i < 60000; ++i) {
        Addr addr = rng.chance(0.5) ? rng.uniformInt(lines / 4 + 1) * 64
                                    : rng.uniformInt(lines) * 64;
        addr += rng.uniformInt(64);
        if (rng.chance(0.01))
            addr = ~Addr{0} - rng.uniformInt(4 * 64);
        const double kind = rng.uniform();
        if (kind < 0.35) {
            ASSERT_EQ(cache.access(addr), ref.access(addr)) << addr;
        } else if (kind < 0.6) {
            expectSameOutcome(cache.accessTracked(addr),
                              ref.accessTracked(addr), addr);
        } else if (kind < 0.7) {
            cache.fill(addr);
            ref.lookupTracked(addr, false);
        } else if (kind < 0.8) {
            expectSameOutcome(cache.fillTracked(addr),
                              ref.lookupTracked(addr, false), addr);
        } else if (kind < 0.9995) {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << addr;
        } else {
            cache.reset();
            ref.reset();
        }
        if (HasFatalFailure())
            return;
        ASSERT_EQ(cache.accesses(), ref.accesses);
        ASSERT_EQ(cache.misses(), ref.misses);
        ASSERT_EQ(cache.prefetchFills(), ref.prefetchFills);
    }
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_LT(cache.misses(), cache.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLockstep,
    testing::Values(Geometry{"direct", 4096, 1, false, 1},
                    Geometry{"direct_pf", 4096, 1, true, 1},
                    Geometry{"eight_way", 32768, 8, false, 1},
                    Geometry{"eight_way_pf", 32768, 8, true, 2},
                    Geometry{"sixteen_way", 65536, 16, false, 1},
                    Geometry{"sixteen_way_pf", 65536, 16, true, 1},
                    Geometry{"full", 2048, 32, false, 1},
                    Geometry{"full_pf", 2048, 32, true, 3}),
    [](const testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

struct TlbGeometry
{
    const char *name;
    std::uint32_t entries;
    std::uint32_t associativity;
};

void
PrintTo(const TlbGeometry &g, std::ostream *os)
{
    *os << g.entries << " entries " << g.associativity << "-way";
}

class TlbLockstep : public testing::TestWithParam<TlbGeometry>
{
};

TEST_P(TlbLockstep, MatchesTheReferenceModel)
{
    const TlbGeometry &g = GetParam();
    TlbConfig config;
    config.entries = g.entries;
    config.associativity = g.associativity;
    config.pageBytes = 4096;
    Tlb tlb(config);
    RefTlb ref(config);

    const std::uint64_t pages = 3 * g.entries;
    Rng rng(g.entries * 31 + g.associativity);
    for (int i = 0; i < 60000; ++i) {
        Addr addr = rng.chance(0.5) ? rng.uniformInt(pages / 4 + 1) * 4096
                                    : rng.uniformInt(pages) * 4096;
        addr += rng.uniformInt(4096);
        if (rng.chance(0.01))
            addr = ~Addr{0} - rng.uniformInt(4 * 4096);
        if (rng.chance(0.0005)) {
            tlb.reset();
            ref.reset();
        } else {
            ASSERT_EQ(tlb.access(addr), ref.access(addr)) << addr;
        }
        ASSERT_EQ(tlb.accesses(), ref.accesses);
        ASSERT_EQ(tlb.misses(), ref.misses);
    }
    EXPECT_GT(tlb.misses(), 0u);
    EXPECT_LT(tlb.misses(), tlb.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbLockstep,
    testing::Values(TlbGeometry{"direct", 64, 1},
                    TlbGeometry{"eight_way", 256, 8},
                    TlbGeometry{"sixteen_way", 256, 16},
                    TlbGeometry{"full", 16, 16}),
    [](const testing::TestParamInfo<TlbGeometry> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace mtperf::uarch
