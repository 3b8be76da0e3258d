/**
 * @file
 * Synthetic instruction-stream generation from phase parameters.
 *
 * The generator turns a PhaseParams description into a concrete
 * MicroOp stream: load/store addresses with the requested working set,
 * stride/pointer-chase/zipf structure, branch outcomes with the
 * requested predictability, PC movement over the code footprint, and
 * the encoding/forwarding quirks. The timing core then *measures* the
 * resulting event counts — nothing in the generator writes counters.
 */

#ifndef MTPERF_WORKLOAD_STREAM_GEN_H_
#define MTPERF_WORKLOAD_STREAM_GEN_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "uarch/types.h"
#include "workload/phase.h"

namespace mtperf::workload {

/** Stateful generator of one phase's dynamic instruction stream. */
class StreamGenerator
{
  public:
    /**
     * @param params validated phase description.
     * @param seed deterministic stream seed.
     */
    StreamGenerator(const PhaseParams &params, std::uint64_t seed);

    /** Produce the next dynamic instruction. */
    uarch::MicroOp next();

    /**
     * Replace the phase parameters (e.g., per-section jitter) while
     * keeping address-space state, so caches stay meaningfully warm.
     */
    void setParams(const PhaseParams &params);

    const PhaseParams &params() const { return params_; }

  private:
    uarch::Addr pickLoadAddress(uarch::MicroOp &op);
    uarch::Addr pickStoreAddress(uarch::MicroOp &op);
    uarch::Addr randomDataAddress();
    void advancePc(bool taken_branch);
    std::uint64_t scrambledLine(std::uint64_t rank) const;

    PhaseParams params_;
    Rng rng_;

    uarch::Addr dataBase_;
    uarch::Addr hotBase_;
    uarch::Addr codeBase_;
    std::uint64_t dataLines_ = 1;
    std::uint64_t hotLines_ = 1;
    std::uint64_t codeLines_ = 1;

    /**
     * Per-footprint Zipf samplers and the dependency-distance sampler,
     * re-targeted by setParams (per section) instead of re-deriving
     * their constants on every draw. A Zipf sampler keeps its
     * acceptance table while its exponent is unchanged, which holds
     * for every section of a phase.
     */
    ZipfSampler hotSampler_;
    ZipfSampler dataSampler_;
    ZipfSampler codeSampler_;
    GeometricSampler depSampler_;

    uarch::Addr pc_;
    uarch::Addr streamPos_ = 0;
    std::uint64_t chaseState_ = 0x1234567;
    uarch::Addr lastChaseAddr_ = 0x10000000ULL;

    std::uint64_t opIndex_ = 0;
    std::uint64_t lastChaseLoad_ = 0;
    bool haveChaseLoad_ = false;

    struct RecentStore
    {
        uarch::Addr addr = 0;
        std::uint8_t size = 0;
    };
    std::vector<RecentStore> recentStores_;
    std::size_t recentStoreHead_ = 0;
    std::size_t recentStoreCount_ = 0;
};

} // namespace mtperf::workload

#endif // MTPERF_WORKLOAD_STREAM_GEN_H_
