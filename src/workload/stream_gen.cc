#include "workload/stream_gen.h"

#include <algorithm>

#include "common/logging.h"

namespace mtperf::workload {

using uarch::Addr;
using uarch::kLineBytes;
using uarch::MicroOp;
using uarch::OpClass;

namespace {

/** splitmix64-style mix used for the pointer-chase walk. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr std::size_t kRecentStoreRing = 8;

} // namespace

StreamGenerator::StreamGenerator(const PhaseParams &params,
                                 std::uint64_t seed)
    : params_(params),
      rng_(seed),
      dataBase_(0x10000000ULL),
      hotBase_(0x08000000ULL),
      codeBase_(0x00400000ULL),
      pc_(codeBase_),
      recentStores_(kRecentStoreRing)
{
    params_.validate();
    setParams(params);
    chaseState_ = mix64(seed ^ 0xc0ffee);
}

void
StreamGenerator::setParams(const PhaseParams &params)
{
    params_ = params;
    params_.validate();
    dataLines_ = std::max<std::uint64_t>(1,
                                         params_.workingSetBytes /
                                             kLineBytes);
    hotLines_ = std::max<std::uint64_t>(1, params_.hotBytes / kLineBytes);
    codeLines_ = std::max<std::uint64_t>(1,
                                         params_.codeFootprintBytes /
                                             kLineBytes);
    if (pc_ < codeBase_ ||
        pc_ >= codeBase_ + codeLines_ * kLineBytes) {
        pc_ = codeBase_;
    }
    hotSampler_.setParams(hotLines_, 1.2);
    dataSampler_.setParams(dataLines_, params_.zipfS);
    codeSampler_.setParams(codeLines_, params_.codeZipfS);
    depSampler_ = GeometricSampler(params_.depGeoP);
}

std::uint64_t
StreamGenerator::scrambledLine(std::uint64_t rank) const
{
    // Scramble at page granularity: hot ranks land on scattered pages,
    // but lines within a page stay together, so page-level locality
    // (what the DTLB caches) tracks line-level locality the way real
    // heaps do.
    constexpr std::uint64_t lines_per_page =
        uarch::kPageBytes / kLineBytes;
    const std::uint64_t page = rank / lines_per_page;
    const std::uint64_t line_in_page = rank % lines_per_page;
    const std::uint64_t num_pages =
        std::max<std::uint64_t>(1, dataLines_ / lines_per_page);
    const std::uint64_t scrambled_page =
        (page * 0x9e3779b97f4a7c15ULL) % num_pages;
    return (scrambled_page * lines_per_page + line_in_page) % dataLines_;
}

Addr
StreamGenerator::pickLoadAddress(MicroOp &op)
{
    op.size = rng_.chance(0.4) ? 8 : 4;

    // Store-forwarding loads read a recently stored location.
    if (recentStoreCount_ > 0 && rng_.chance(params_.storeForwardFrac)) {
        const std::size_t avail =
            std::min(recentStoreCount_, kRecentStoreRing);
        const std::size_t back =
            1 + static_cast<std::size_t>(
                    rng_.uniformInt(std::uint64_t(avail)));
        const std::size_t pick =
            (recentStoreHead_ + kRecentStoreRing - back) %
            kRecentStoreRing;
        const RecentStore &store = recentStores_[pick];
        if (rng_.chance(params_.storeForwardPartialFrac)) {
            // Partial overlap: read wider than the store, or start
            // inside it — forwarding cannot satisfy this.
            op.size = 8;
            return store.addr + store.size / 2;
        }
        op.size = store.size;
        return store.addr;
    }

    const double kind = rng_.uniform();
    Addr addr;
    if (kind < params_.pointerChaseFrac) {
        // Dependent random walk: the next address is a hash of the
        // previous one, and the op depends on the previous chase load.
        // Nodes allocated together live on the same page, so about
        // half the hops stay page-local — DTLB misses trail L2 misses
        // the way they do for real pointer codes.
        chaseState_ = mix64(chaseState_);
        constexpr std::uint64_t lines_per_page =
            uarch::kPageBytes / kLineBytes;
        if (rng_.chance(params_.chasePageLocalFrac) &&
            dataLines_ > lines_per_page) {
            const Addr page_base =
                lastChaseAddr_ & ~(uarch::kPageBytes - 1);
            addr = page_base +
                   (chaseState_ % lines_per_page) * kLineBytes;
        } else {
            addr = dataBase_ + (chaseState_ % dataLines_) * kLineBytes;
        }
        lastChaseAddr_ = addr;
        op.size = 8;
        if (haveChaseLoad_) {
            const std::uint64_t dist = opIndex_ - lastChaseLoad_;
            op.depDist = static_cast<std::uint16_t>(
                std::clamp<std::uint64_t>(dist, 1, 255));
        }
        lastChaseLoad_ = opIndex_;
        haveChaseLoad_ = true;
        return addr;
    }
    if (kind < params_.pointerChaseFrac + params_.streamFrac) {
        streamPos_ =
            (streamPos_ + params_.strideBytes) %
            (dataLines_ * kLineBytes);
        return dataBase_ + (streamPos_ & ~Addr(op.size - 1));
    }
    addr = randomDataAddress();
    return addr;
}

Addr
StreamGenerator::randomDataAddress()
{
    const std::uint64_t offset =
        rng_.uniformInt(std::uint64_t(kLineBytes / 8)) * 8;
    if (rng_.chance(params_.hotFrac)) {
        // Stack/locals/globals: a small, heavily reused region.
        const std::uint64_t line = hotSampler_.sample(rng_);
        return hotBase_ + line * kLineBytes + offset;
    }
    const std::uint64_t rank = dataSampler_.sample(rng_);
    return dataBase_ + scrambledLine(rank) * kLineBytes + offset;
}

Addr
StreamGenerator::pickStoreAddress(MicroOp &op)
{
    op.size = rng_.chance(0.4) ? 8 : 4;
    return randomDataAddress();
}

void
StreamGenerator::advancePc(bool taken_branch)
{
    const Addr code_end = codeBase_ + codeLines_ * kLineBytes;
    if (!taken_branch) {
        pc_ += 4;
        if (pc_ >= code_end)
            pc_ = codeBase_;
        return;
    }
    if (rng_.chance(params_.farJumpFrac)) {
        // Call or indirect jump to a zipf-hot region of the footprint.
        const std::uint64_t line = codeSampler_.sample(rng_);
        pc_ = codeBase_ + line * kLineBytes +
              rng_.uniformInt(std::uint64_t(kLineBytes / 4)) * 4;
        return;
    }
    // Loop-style short backward branch.
    const std::uint64_t span =
        1 + rng_.uniformInt(std::uint64_t(128));
    const Addr back = span * 4;
    pc_ = pc_ >= codeBase_ + back ? pc_ - back : codeBase_;
}

MicroOp
StreamGenerator::next()
{
    MicroOp op;
    op.pc = pc_;

    const double mix = rng_.uniform();
    double acc = params_.loadFrac;
    if (mix < acc) {
        op.cls = OpClass::Load;
    } else if (mix < (acc += params_.storeFrac)) {
        op.cls = OpClass::Store;
    } else if (mix < (acc += params_.branchFrac)) {
        op.cls = OpClass::Branch;
    } else if (mix < (acc += params_.fpAddFrac)) {
        op.cls = OpClass::FpAdd;
    } else if (mix < (acc += params_.fpMulFrac)) {
        op.cls = OpClass::FpMul;
    } else if (mix < (acc += params_.fpDivFrac)) {
        op.cls = OpClass::FpDiv;
    } else if (mix < (acc += params_.intMulFrac)) {
        op.cls = OpClass::IntMul;
    } else {
        op.cls = OpClass::IntAlu;
    }

    // Register dependency (pointer-chase loads override this below).
    if (!rng_.chance(params_.depNoneFrac)) {
        const std::uint64_t dist = 1 + depSampler_.sample(rng_);
        op.depDist = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(dist, 64));
    }

    bool taken_branch = false;
    switch (op.cls) {
      case OpClass::Load:
        op.addr = pickLoadAddress(op);
        if (rng_.chance(params_.misalignedFrac)) {
            // Offset by one byte; occasionally park the access at the
            // end of a line so it also splits.
            op.addr += rng_.chance(0.3)
                           ? (kLineBytes - op.addr % kLineBytes - 1)
                           : 1;
        }
        break;
      case OpClass::Store:
        op.addr = pickStoreAddress(op);
        if (rng_.chance(params_.misalignedFrac)) {
            op.addr += rng_.chance(0.3)
                           ? (kLineBytes - op.addr % kLineBytes - 1)
                           : 1;
        }
        op.storeAddrSlow = rng_.chance(params_.storeAddrSlowFrac);
        {
            recentStores_[recentStoreHead_] = {op.addr, op.size};
            recentStoreHead_ = (recentStoreHead_ + 1) % kRecentStoreRing;
            ++recentStoreCount_;
        }
        break;
      case OpClass::Branch:
        if (rng_.chance(params_.branchEntropy))
            op.taken = rng_.chance(0.5);
        else
            op.taken = rng_.chance(params_.takenBias);
        taken_branch = op.taken;
        break;
      default:
        break;
    }

    op.hasLcp = rng_.chance(params_.lcpFrac);

    advancePc(taken_branch);
    ++opIndex_;
    return op;
}

} // namespace mtperf::workload
