/**
 * @file
 * JSON export of trees and analysis reports.
 *
 * Downstream tooling (dashboards, CI regression gates) wants the
 * model and the per-class analysis as structured data rather than
 * text. This module renders the tree structure, the leaf models and
 * a dataset's classification summary as a single JSON document, with
 * no external JSON dependency (the emitted subset is plain objects,
 * arrays, strings and numbers).
 */

#ifndef MTPERF_PERF_JSON_REPORT_H_
#define MTPERF_PERF_JSON_REPORT_H_

#include <string>

#include "data/dataset.h"
#include "ml/tree/m5prime.h"

namespace mtperf::perf {

/**
 * Render the fitted tree as JSON: schema, options, and one object per
 * leaf (id, coverage, rules, model terms).
 */
std::string treeToJson(const M5Prime &tree);

/**
 * Render the tree plus a dataset's classification: per-leaf section
 * counts, workload composition and mean contributions.
 */
std::string analysisToJson(const M5Prime &tree, const Dataset &ds);

} // namespace mtperf::perf

#endif // MTPERF_PERF_JSON_REPORT_H_
