/**
 * @file
 * Benchmark snapshot comparison — the regression gate behind
 * `mtperf benchdiff OLD.json NEW.json`.
 *
 * BENCH_ml/BENCH_sim/BENCH_serve snapshots are flat JSON objects of
 * numbers (plus a git_sha string). Comparing two of them is a policy
 * question, not an arithmetic one: throughput may dip a little on a
 * shared runner, latency tails are noisy, counts are deterministic,
 * and wall-clock must never gate anything. The policy is resolved
 * from the metric *name*:
 *
 *   - informational (never gates): `git_sha`, `retries`, any name
 *     ending in `wall_seconds` — environment-dependent by nature.
 *   - higher-is-better (default tolerance 0.30): names ending in
 *     `_per_sec`, `hit_rate` or containing `speedup` — throughput may
 *     regress by at most the tolerance fraction.
 *   - lower-is-better (default tolerance 0.50): latency percentiles
 *     (`p50_us`, `p95_us`, `p99_us`, any `p<N>_us`) — tails may grow
 *     by at most the tolerance fraction.
 *   - exact: everything else (row counts, leaf counts, event counts,
 *     configuration constants) — deterministic, so any change is a
 *     regression (or an unacknowledged behavior change).
 *
 * `--tolerance name=frac` overrides the tolerance of one metric; an
 * override on an exact or informational metric converts it to a
 * symmetric relative band (|change| <= frac).
 *
 * The verdict serializes as a canonical CRC-sealed JSON document
 * (common/sealed_json.h, shared with validate/report and
 * obs/timeseries) so CI can archive it and later runs can trust its
 * bytes.
 */

#ifndef MTPERF_PERF_BENCHDIFF_H_
#define MTPERF_PERF_BENCHDIFF_H_

#include <map>
#include <string>
#include <vector>

namespace mtperf::perf {

/** How a metric participates in the gate. */
enum class BenchPolicy
{
    Informational, //!< reported, never gates
    HigherBetter,  //!< gate: new >= old * (1 - tolerance)
    LowerBetter,   //!< gate: new <= old * (1 + tolerance)
    Exact,         //!< gate: new == old
    Band,          //!< gate: |relative change| <= tolerance (override)
};

/** The policy class benchdiff resolves for @p name (pre-override). */
BenchPolicy benchPolicyFor(const std::string &name);

/** One compared metric. */
struct BenchMetricDiff
{
    std::string name;
    bool inOld = false;
    bool inNew = false;
    bool isString = false; //!< e.g. git_sha — compared as text
    double oldValue = 0.0;
    double newValue = 0.0;
    std::string oldText;
    std::string newText;
    /** (new - old) / |old|; 0 when old == 0 or values are strings. */
    double change = 0.0;
    BenchPolicy policy = BenchPolicy::Informational;
    double tolerance = 0.0;
    bool pass = true;
    std::string note; //!< "missing in NEW", "added in NEW", ...
};

/** The full comparison. */
struct BenchDiffReport
{
    std::string oldSource;
    std::string newSource;
    std::vector<BenchMetricDiff> metrics;

    /** Gated metrics that failed. */
    std::size_t regressions() const;
    bool pass() const { return regressions() == 0; }
};

/**
 * Compare two snapshot documents. @p overrides maps metric name to a
 * tolerance fraction (see the header comment for override semantics).
 * @throw FatalError when either document is not a flat JSON object of
 * numbers/strings, or an override names a metric in neither document.
 */
BenchDiffReport diffBenchDocs(const std::string &old_text,
                              const std::string &old_source,
                              const std::string &new_text,
                              const std::string &new_source,
                              const std::map<std::string, double>
                                  &overrides = {});

/** diffBenchDocs over two files ("-" is not supported here). */
BenchDiffReport diffBenchFiles(const std::string &old_path,
                               const std::string &new_path,
                               const std::map<std::string, double>
                                   &overrides = {});

/** Human-readable table, one line per metric, worst first. */
std::string formatBenchDiff(const BenchDiffReport &report);

/** Canonical CRC-sealed verdict JSON (no trailing newline). */
std::string benchDiffToJson(const BenchDiffReport &report);

/** Crash-safe benchDiffToJson() dump. Fault site: `obs.flush`. */
void writeBenchDiffFile(const std::string &path,
                        const BenchDiffReport &report);

} // namespace mtperf::perf

#endif // MTPERF_PERF_BENCHDIFF_H_
