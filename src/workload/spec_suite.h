/**
 * @file
 * The synthetic SPEC-CPU2006-like workload suite.
 *
 * Each workload is a phase-parameter model of the qualitative
 * behaviour the corresponding SPEC benchmark shows on a Core-2-class
 * machine: 429.mcf pointer-chases a huge working set (L2 + DTLB
 * bound), 436.cactusADM combines a large code footprint with big data
 * (L1I + L2 bound), 403.gcc has LCP-afflicted phases, 458.sjeng is
 * mispredict bound, 462.libquantum streams prefetch-friendly data,
 * and so on. The absolute numbers are tuned, not measured; what the
 * experiments rely on is that the suite spans the same diverse mix of
 * bottleneck classes the paper's dataset did.
 *
 * The suite is *data*: the committed *.json files in specs/, built
 * into the binary at compile time and parsed by the strict spec
 * loader (spec_io.h). specLikeSuite() resolves through a registry:
 *
 *   1. the MTPERF_SPEC_DIR environment variable, when set and not
 *      empty, names a directory of *.json workload specs to run;
 *   2. otherwise the embedded copy of specs/ runs, so a binary
 *      behaves the same wherever it is and whether or not the source
 *      tree still exists.
 *
 * The embedded suite keeps the order of the manifest specs/suite.txt.
 * Directory suites are reordered canonically (manifest order for the
 * names it lists, then extras sorted by name) so dataset row order —
 * and therefore every downstream CSV byte — is independent of
 * directory listing order.
 */

#ifndef MTPERF_WORKLOAD_SPEC_SUITE_H_
#define MTPERF_WORKLOAD_SPEC_SUITE_H_

#include <string>
#include <vector>

#include "workload/phase.h"

namespace mtperf::workload {

/** The full 17-workload suite, with per-phase section budgets. */
std::vector<WorkloadSpec> specLikeSuite();

/**
 * Look up one suite workload by name.
 * @throw FatalError listing the available names if absent.
 */
WorkloadSpec suiteWorkload(const std::string &name);

/** Names of all suite workloads, in suite order. */
std::vector<std::string> suiteWorkloadNames();

/** Human description of where specLikeSuite() got its workloads. */
std::string suiteSourceDescription();

/**
 * Forget the cached suite so the next specLikeSuite() call resolves
 * its source again (tests flip MTPERF_SPEC_DIR around this).
 */
void reloadSuiteRegistry();

} // namespace mtperf::workload

#endif // MTPERF_WORKLOAD_SPEC_SUITE_H_
