/**
 * @file
 * The benchmark's regression gate: `mtperf benchdiff BASE HEAD`.
 *
 * BASE and HEAD each hold the concatenated standard output of
 * perfbench runs (perfbench/run.py), two lines per run:
 *
 *     perfbench: workload train_counters, seed 3, trace 0
 *     {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
 *
 * The i-th base run pairs with the i-th head run. Every rule comes
 * from what the benchmark already declares: BENCHMARK.json gives each
 * metric's direction (`better`) and each end-to-end metric's `bound`;
 * perfbench/protocol.json lists the exact metrics. A metric gets one
 * verdict:
 *
 *   - exact: `identical` when every run on both sides has the same
 *     value, else `differs` (gates);
 *   - end-to-end, the first that applies:
 *       1. `regressed` (gates): the head median is worse than the
 *          base median by more than `bound` of the base median;
 *       2. `unresolved`: either side's quartile spread exceeds
 *          `bound` times its median, and not every head run beats
 *          every base run;
 *       3. `improved`: at least 10 pairs, head wins at least 9 in
 *          10, and the head median is better by more than the base's
 *          quartile spread;
 *       4. `within_bound`;
 *   - per-layer (`--trace 1` runs): `reported`, never gates.
 *
 * A pair is won when head is better in the declared direction; ties
 * count for neither side. The gate also fails when any head run says
 * `"correct": false` or head's failed share (failed / attempted,
 * summed over runs) is above base's. Input that cannot be compared
 * (run counts that differ, unpaired workload/seed/trace, a file that
 * mixes workloads or trace modes, an unparsable line, an undeclared
 * or missing metric) is a FatalError naming the file and line.
 */

#ifndef MTPERF_PERF_BENCHDIFF_H_
#define MTPERF_PERF_BENCHDIFF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mtperf::perf {

/** What the benchmark declares about one metric. */
struct DeclaredMetric
{
    std::string name;
    bool endToEnd = false;     //!< in end_to_end[], else per_layer[]
    bool higherBetter = false; //!< `"better": "higher"`
    bool exact = false;        //!< in protocol.json exact_metrics
    double bound = 0.0;        //!< end-to-end: largest relative loss
};

/** Every declared metric: end-to-end first, in BENCHMARK.json order. */
using BenchDeclarations = std::vector<DeclaredMetric>;

/**
 * Read BENCHMARK.json at @p benchmark_path and perfbench/protocol.json
 * at @p protocol_path. @throw FatalError when either cannot be read or
 * lacks the fields benchdiff judges by.
 */
BenchDeclarations readBenchDeclarations(const std::string &benchmark_path,
                                        const std::string &protocol_path);

/** One metric's verdict (see the file comment). */
enum class BenchVerdict
{
    Identical,
    Differs,
    Regressed,
    Unresolved,
    Improved,
    WithinBound,
    Reported,
};

/** One compared metric. */
struct BenchMetricDiff
{
    DeclaredMetric declared;
    BenchVerdict verdict = BenchVerdict::Reported;
    double baseMedian = 0.0;
    double headMedian = 0.0;
    double baseSpread = 0.0; //!< upper minus lower quartile
    double headSpread = 0.0;
    /** (head - base) / |base| of the medians; 0 when base is 0. */
    double change = 0.0;
    std::size_t wins = 0; //!< pairs head won
};

/** The full comparison. */
struct BenchDiffReport
{
    std::string baseSource;
    std::string headSource;
    std::string workload;
    int trace = 0;
    std::size_t pairs = 0;
    bool headCorrect = true; //!< every head run `"correct": true`
    std::uint64_t baseAttempted = 0;
    std::uint64_t baseFailed = 0;
    std::uint64_t headAttempted = 0;
    std::uint64_t headFailed = 0;
    std::vector<BenchMetricDiff> metrics; //!< declaration order

    std::size_t count(BenchVerdict verdict) const;
    /** Head failed a larger share of its operations than base. */
    bool failedShareGrew() const;
    bool pass() const;
};

/**
 * Compare base and head runs given as text. @p base_source and
 * @p head_source name them in errors and in the report.
 * @throw FatalError on input that cannot be compared.
 */
BenchDiffReport diffBenchRuns(const std::string &base_text,
                              const std::string &base_source,
                              const std::string &head_text,
                              const std::string &head_source,
                              const BenchDeclarations &declared);

/** diffBenchRuns over two files. */
BenchDiffReport diffBenchFiles(const std::string &base_path,
                               const std::string &head_path,
                               const BenchDeclarations &declared);

/** Human-readable table, one line per metric, gating lines first. */
std::string formatBenchDiff(const BenchDiffReport &report);

/** Canonical verdict JSON, CRC-sealed by common/sealed_json.h. */
std::string benchDiffToJson(const BenchDiffReport &report);

/** Crash-safe benchDiffToJson() dump. Fault site: `obs.flush`. */
void writeBenchDiffFile(const std::string &path,
                        const BenchDiffReport &report);

} // namespace mtperf::perf

#endif // MTPERF_PERF_BENCHDIFF_H_
