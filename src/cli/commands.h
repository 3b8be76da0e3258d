/**
 * @file
 * The mtperf command-line tool's subcommands.
 *
 * Each subcommand is a plain function taking its argument tokens and
 * an output stream, so the whole CLI is unit-testable without spawning
 * processes. The binary in tools/ is a thin dispatcher over these.
 *
 * Subcommands:
 *   simulate    — run the suite (or spec files), write a section CSV
 *   workloads   — list and export available workload specs
 *   genworkload — mint novel workload specs from a seed
 *   train       — learn an M5' model from a section CSV, save it
 *   print       — pretty-print a saved model
 *   predict     — apply a saved model to a CSV, report accuracy
 *   analyze     — classification + contribution report for a CSV
 *   crossval    — k-fold cross-validation of M5' on a CSV
 *   diff        — before/after comparison of two section CSVs
 *   stack       — simulator-attributed CPI stack for one workload
 *   serve       — prediction server: batched inference over a socket
 *   top         — live terminal dashboard over a running server's
 *                 HTTP /metrics scrape
 *   benchdiff   — judge base vs head perfbench runs by BENCHMARK.json's
 *                 directions and bounds; exit 6 on a regression
 *   validate    — assert the simulator's event counters against the
 *                 analytic oracle workloads, emit a drift report
 *   version     — build metadata (version, git sha, compiler);
 *                 --json emits a machine-readable document
 *
 * Observability: every command also accepts --trace-out FILE (write a
 * Chrome trace-event JSON of the run, loadable in Perfetto),
 * --metrics-out FILE (dump the metrics registry; --metrics-format
 * picks json or Prometheus text), --timeseries-out INTERVAL:PATH
 * (background sampler writing a CRC-sealed time-series document),
 * --log-json (structured JSON log lines on stderr) and --log-level.
 */

#ifndef MTPERF_CLI_COMMANDS_H_
#define MTPERF_CLI_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace mtperf::cli {

/** Exit status of a subcommand (0 = success). */
using CommandFn = int (*)(const std::vector<std::string> &args,
                          std::ostream &out);

int cmdSimulate(const std::vector<std::string> &args, std::ostream &out);
int cmdWorkloads(const std::vector<std::string> &args, std::ostream &out);
int cmdGenworkload(const std::vector<std::string> &args,
                   std::ostream &out);
int cmdTrain(const std::vector<std::string> &args, std::ostream &out);
int cmdPrint(const std::vector<std::string> &args, std::ostream &out);
int cmdPredict(const std::vector<std::string> &args, std::ostream &out);
int cmdAnalyze(const std::vector<std::string> &args, std::ostream &out);
int cmdCrossval(const std::vector<std::string> &args, std::ostream &out);
int cmdDiff(const std::vector<std::string> &args, std::ostream &out);
int cmdStack(const std::vector<std::string> &args, std::ostream &out);
int cmdServe(const std::vector<std::string> &args, std::ostream &out);
int cmdTop(const std::vector<std::string> &args, std::ostream &out);
int cmdBenchdiff(const std::vector<std::string> &args,
                 std::ostream &out);
int cmdValidate(const std::vector<std::string> &args,
                std::ostream &out);
int cmdVersion(const std::vector<std::string> &args, std::ostream &out);

/**
 * Exit status of `mtperf validate` when one or more counters drifted
 * out of their oracle bounds. Distinct from the 0/2/3/4 contract so
 * CI can tell "counter accounting regressed" (5) from "could not
 * run" (2/3/4).
 */
inline constexpr int kExitCounterDrift = 5;

/**
 * Exit status of `mtperf benchdiff` when a metric regressed beyond
 * its bound, an exact metric changed or head failed more. Distinct
 * from 0/2/3/4/5 so CI can tell "performance regressed" from "could
 * not compare".
 */
inline constexpr int kExitBenchRegression = 6;

/**
 * Dispatch @p subcommand; "help" (or anything unknown) prints usage.
 * FatalError from a subcommand is caught and reported on @p out.
 * @return process exit status.
 */
int runCommand(const std::string &subcommand,
               const std::vector<std::string> &args, std::ostream &out);

/** Top-level usage text. */
std::string usageText();

} // namespace mtperf::cli

#endif // MTPERF_CLI_COMMANDS_H_
