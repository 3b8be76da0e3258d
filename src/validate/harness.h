/**
 * @file
 * The counter-validation harness behind `mtperf validate`.
 *
 * Runs every oracle workload (the --oracle-dir directory when given,
 * else the copy of specs/oracle/ embedded at build time), simulates
 * it on one Core per workload, and asserts all kNumEventCounters
 * fields against the analytic bounds from validate/oracle.h.
 * Workloads run via parallelFor with index-addressed results, so the
 * outcome is identical at any --threads value.
 *
 * Observability: every comparison bumps validate.counters_checked and
 * one of validate.counters_passed / validate.counters_failed; an obs
 * invariant pins checked == passed + failed.
 */

#ifndef MTPERF_VALIDATE_HARNESS_H_
#define MTPERF_VALIDATE_HARNESS_H_

#include <cstdint>
#include <string>

#include "uarch/core.h"
#include "validate/report.h"

namespace mtperf::validate {

/** Knobs for one validation run. */
struct ValidateOptions
{
    /** Instructions simulated per oracle workload. */
    std::uint64_t instructions = 200000;

    /** Stream seed (bounds are sound for any seed). */
    std::uint64_t seed = 42;

    /**
     * Directory of oracle workload specs; empty runs the embedded
     * specs/oracle/ suite.
     */
    std::string oracleDir;

    /**
     * Test hook: double the named measured counter after simulation,
     * rehearsing a systematic accounting bug (one extra increment per
     * real event). Empty disables.
     * @see counterByName for valid names.
     */
    std::string injectCounterBug;

    /** Machine geometry the bounds are derived from. */
    uarch::CoreConfig coreConfig = uarch::CoreConfig::core2Like();
};

/**
 * Validate every oracle workload.
 * @throw UsageError for an unknown injectCounterBug name or an
 * unanalyzable spec; FatalError for unloadable spec directories.
 */
ValidateReport runValidation(const ValidateOptions &options);

} // namespace mtperf::validate

#endif // MTPERF_VALIDATE_HARNESS_H_
