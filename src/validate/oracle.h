/**
 * @file
 * Analytic counter oracles for directed microbenchmark workloads.
 *
 * The paper's method trains on the 20 Table-I event counters, so a
 * silent accounting bug poisons every downstream model. Following the
 * CounterPoint / event-validation approach (PAPERS.md), this module
 * derives *expected* counts — with explicit ±tolerance bounds — for a
 * small family of degenerate workloads whose behaviour is analyzable
 * in closed form from the PhaseParams and the machine geometry alone:
 *
 *   chase          every op a pointer-chase load over a working set
 *                  far larger than every cache and TLB, so the miss
 *                  ratios collapse to capacity ratios;
 *   lcp            every op an ALU op with a length-changing prefix,
 *                  so lcpStalls == instRetired exactly;
 *   branch_ladder  every op an always-taken branch, so brRetired == N
 *                  and (tables initialize weakly-taken) exactly zero
 *                  mispredicts;
 *   branch_noise   every op a coin-flip branch, so brMispredicted is
 *                  Binomial(N, 1/2) regardless of predictor quality;
 *   stride         every op a sequential 1-line-stride load, so the
 *                  L1D misses every line, the L2 (next-line prefetch,
 *                  degree d) demand-misses exactly every d+1-th line,
 *                  and the DTLB misses once per page;
 *   chase_pair     two co-run pointer chases whose working sets each
 *                  fit the shared L2 alone but overflow it together,
 *                  so the interference counters (l2SharedMisses and
 *                  friends) must land inside the proportional-
 *                  occupancy bounds of DESIGN.md §14 — and must be
 *                  exactly zero in every solo family.
 *
 * Each bound states which geometry it read (DESIGN.md §13 has the
 * full derivations). Bounds are sound for any instruction count and
 * any thread count — a counter outside its bound is an accounting
 * regression, not noise.
 */

#ifndef MTPERF_VALIDATE_ORACLE_H_
#define MTPERF_VALIDATE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/core.h"
#include "workload/phase.h"

namespace mtperf::validate {

/** The analyzable workload shapes. */
enum class OracleFamily {
    Chase,
    Lcp,
    BranchLadder,
    BranchNoise,
    Stride,
    ChasePair, //!< never classified; only chasePairBounds() bounds it
};

/** Stable name of a family ("chase", "lcp", ...). */
const char *familyName(OracleFamily family);

/** Closed-form expectation for one EventCounters field. */
struct CounterBound
{
    std::string counter; //!< EventCounters field name
    double expected = 0; //!< analytic point estimate
    double lo = 0;       //!< inclusive lower bound
    double hi = 0;       //!< inclusive upper bound
};

/**
 * Classify @p spec as one of the oracle families.
 * @throw UsageError naming the offending field when the spec is not
 * degenerate enough to analyze (oracle bounds would be unsound).
 */
OracleFamily classifyOracleSpec(const workload::WorkloadSpec &spec);

/**
 * Expected-count bounds for all kNumEventCounters fields of a run of
 * @p instructions ops of @p spec on a machine shaped by @p config.
 * @throw UsageError when the spec is not an oracle workload or its
 * geometry violates a family precondition (e.g. a chase working set
 * small enough that capacity miss ratios stop being tight).
 */
std::vector<CounterBound> oracleBounds(const workload::WorkloadSpec &spec,
                                       const uarch::CoreConfig &config,
                                       std::uint64_t instructions);

/**
 * Fewest instructions per lane for which the chase_pair calibration
 * holds: the co-run must reach occupancy steady state, or the
 * cold-start transient dominates the contention counts. Runs shorter
 * than this skip the pair (and chasePairBounds() refuses them).
 */
inline constexpr std::uint64_t kChasePairMinInstructions = 100000;

/**
 * The co-run chase pair, in core order: the embedded oracle_chase
 * spec with its working set resized per lane. Each lane is a pure
 * pointer chase sized so it fits the shared L2 comfortably alone
 * (<= 3/4 of its lines) yet the two together overflow it (>= 5/4
 * combined): run solo, every contention counter is structurally
 * zero; co-run, both cores must show shared misses.
 */
std::vector<workload::WorkloadSpec> builtinChasePair();

/**
 * Expected-count bounds for all kNumEventCounters fields of @p
 * self's lane when it co-runs against @p other on the shared L2 of
 * @p config, both lanes executing @p instructions ops. The private
 * counters reuse the solo chase arguments; the L2 and interference
 * counters come from the steady-state proportional-occupancy model
 * (DESIGN.md §14) with margins calibrated to hold across seeds while
 * still rejecting a doubled — or silently zeroed — counter.
 * @throw UsageError when a lane is not a pure chase or the working
 * sets violate the fits-alone / overflows-together preconditions.
 */
std::vector<CounterBound> chasePairBounds(
    const workload::WorkloadSpec &self,
    const workload::WorkloadSpec &other,
    const uarch::CoreConfig &config, std::uint64_t instructions);

/**
 * Rewrite @p params into a valid chase-family phase, preserving the
 * fields the chase bounds do not constrain (lcpFrac, ILP shape, code
 * footprint, zipf exponents). Used by the property tests to turn
 * generator-minted phases into oracle-checkable ones.
 */
workload::PhaseParams oracleChasePhase(workload::PhaseParams params);

} // namespace mtperf::validate

#endif // MTPERF_VALIDATE_ORACLE_H_
