#include "workload/spec_gen.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace mtperf::workload {

namespace {

/**
 * Accept/reject accounting. The invariant (sampled >= accepted +
 * rejected) catches a sampler that drops candidates without counting
 * them — the generation analogue of the simulator's
 * sections_accounted check.
 */
void
registerGenInvariant()
{
    static const bool once = [] {
        obs::registerInvariant("workload.gen_accounted", [] {
            const std::uint64_t sampled =
                obs::counter("workload.gen_sampled").value();
            const std::uint64_t accepted =
                obs::counter("workload.gen_accepted").value();
            const std::uint64_t rejected =
                obs::counter("workload.gen_rejected").value();
            if (sampled >= accepted + rejected)
                return std::string();
            return "workload.gen_sampled=" + std::to_string(sampled) +
                   " < workload.gen_accepted=" +
                   std::to_string(accepted) +
                   " + workload.gen_rejected=" +
                   std::to_string(rejected);
        });
        return true;
    }();
    (void)once;
}

/** Log-uniform integer in [2^lo, 2^hi] (bytes knobs span decades). */
std::uint64_t
logUniformBytes(Rng &rng, double lo, double hi)
{
    return static_cast<std::uint64_t>(
        std::llround(std::exp2(rng.uniform(lo, hi))));
}

/**
 * Draw one candidate phase. May violate the cross-field invariants;
 * the caller rejects and redraws.
 */
PhaseParams
drawPhase(Rng &rng, const std::string &name)
{
    PhaseParams p;
    p.name = name;

    // Instruction mix. FP-heavy scenarios are a coin flip, so the
    // fleet spans both integer and floating-point bottleneck classes.
    p.loadFrac = rng.uniform(0.12, 0.40);
    p.storeFrac = rng.uniform(0.03, 0.18);
    p.branchFrac = rng.uniform(0.03, 0.24);
    if (rng.chance(0.45)) {
        p.fpAddFrac = rng.uniform(0.02, 0.20);
        p.fpMulFrac = rng.uniform(0.02, 0.18);
        p.fpDivFrac = rng.chance(0.2) ? rng.uniform(0.0, 0.02) : 0.0;
    } else {
        p.fpAddFrac = 0.0;
        p.fpMulFrac = 0.0;
        p.fpDivFrac = 0.0;
    }
    p.intMulFrac = rng.uniform(0.0, 0.05);

    // Data side: working sets from L1-resident to DRAM-bound.
    p.workingSetBytes = logUniformBytes(rng, 16.0, 28.0);
    p.hotFrac = rng.uniform(0.2, 0.7);
    p.hotBytes = logUniformBytes(rng, 12.0, 16.0);
    p.pointerChaseFrac =
        rng.chance(0.5) ? rng.uniform(0.02, 0.20) : 0.0;
    p.chasePageLocalFrac = rng.uniform(0.1, 0.95);
    p.streamFrac = rng.chance(0.6) ? rng.uniform(0.1, 0.9) : 0.0;
    const std::uint64_t strides[] = {8, 16, 24, 32, 64, 128};
    p.strideBytes = strides[rng.uniformInt(std::uint64_t{6})];
    p.zipfS = rng.uniform(0.5, 1.3);

    p.branchEntropy = rng.uniform(0.0, 0.12);
    p.takenBias = rng.uniform(0.6, 0.98);

    p.codeFootprintBytes = logUniformBytes(rng, 12.0, 21.0);
    p.codeZipfS = rng.uniform(0.8, 1.4);
    p.farJumpFrac = rng.uniform(0.02, 0.30);

    p.depGeoP = rng.uniform(0.15, 0.60);
    p.depNoneFrac = rng.uniform(0.2, 0.65);

    p.lcpFrac = rng.chance(0.25) ? rng.uniform(0.01, 0.12) : 0.0;
    p.misalignedFrac =
        rng.chance(0.25) ? rng.uniform(0.02, 0.20) : 0.0;
    p.storeForwardFrac =
        rng.chance(0.25) ? rng.uniform(0.05, 0.35) : 0.0;
    p.storeForwardPartialFrac = rng.uniform(0.1, 0.5);
    p.storeAddrSlowFrac =
        rng.chance(0.25) ? rng.uniform(0.05, 0.30) : 0.0;
    return p;
}

/**
 * Keep drawing until a candidate honours the invariants. The mix cap
 * of 0.95 (tighter than validate()'s 1.0) keeps a plain-ALU residue
 * in every scenario, like real instruction streams have.
 */
PhaseParams
samplePhase(Rng &rng, const std::string &name)
{
    static obs::Counter &sampled =
        obs::counter("workload.gen_sampled");
    static obs::Counter &accepted =
        obs::counter("workload.gen_accepted");
    static obs::Counter &rejected =
        obs::counter("workload.gen_rejected");

    for (int attempt = 0; attempt < 1000; ++attempt) {
        sampled.increment();
        PhaseParams p = drawPhase(rng, name);
        const double mix = p.loadFrac + p.storeFrac + p.branchFrac +
                           p.fpAddFrac + p.fpMulFrac + p.fpDivFrac +
                           p.intMulFrac;
        if (mix > 0.95 ||
            p.pointerChaseFrac + p.streamFrac > 1.0) {
            rejected.increment();
            continue;
        }
        try {
            p.validate();
        } catch (const FatalError &) {
            rejected.increment();
            continue;
        }
        accepted.increment();
        return p;
    }
    mtperf_panic("phase sampler failed to produce a valid candidate "
                 "in 1000 attempts — the sampling ranges must have "
                 "drifted outside the validated space");
}

} // namespace

std::vector<WorkloadSpec>
generateWorkloads(const GenOptions &options)
{
    registerGenInvariant();
    if (options.count == 0)
        throw UsageError("genworkload: count must be at least 1");
    if (options.maxPhases == 0)
        throw UsageError("genworkload: maxPhases must be at least 1");
    if (options.minSections == 0 ||
        options.minSections > options.maxSections)
        throw UsageError(
            "genworkload: section range [" +
            std::to_string(options.minSections) + ", " +
            std::to_string(options.maxSections) + "] is empty");
    if (options.namePrefix.empty())
        throw UsageError("genworkload: name prefix must not be empty");

    Rng rng(options.seed);
    std::vector<WorkloadSpec> workloads;
    workloads.reserve(options.count);
    for (std::size_t i = 0; i < options.count; ++i) {
        WorkloadSpec spec;
        spec.name = options.namePrefix + "_s" +
                    std::to_string(options.seed) + "_" +
                    std::to_string(i);
        const std::size_t phases = static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(
                options.maxPhases))) + 1;
        // minSections >= 1, so the span cannot wrap to 0.
        const std::uint64_t total =
            options.minSections +
            rng.uniformInt(options.maxSections - options.minSections + 1);

        // Split the section budget across phases by random weights,
        // never rounding a phase down to zero sections.
        std::vector<double> weights(phases);
        double weight_sum = 0.0;
        for (auto &w : weights) {
            w = rng.uniform(0.5, 1.5);
            weight_sum += w;
        }
        for (std::size_t ph = 0; ph < phases; ++ph) {
            PhaseSpec phase;
            phase.params =
                samplePhase(rng, "p" + std::to_string(ph));
            phase.sections = static_cast<std::size_t>(
                std::max<std::int64_t>(
                    1, std::llround(static_cast<double>(total) *
                                    weights[ph] / weight_sum)));
            spec.phases.push_back(std::move(phase));
        }
        workloads.push_back(std::move(spec));
    }
    return workloads;
}

} // namespace mtperf::workload
