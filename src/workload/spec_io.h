/**
 * @file
 * The declarative workload language: JSON workload-spec documents.
 *
 * A workload is a document, not code. This module defines version 1
 * of the mtperf workload-spec schema (see DESIGN.md §12 for every
 * field, its units and valid range) and converts between WorkloadSpec
 * and its canonical JSON text:
 *
 *     {
 *       "mtperf_workload": 1,
 *       "name": "mcf_like",
 *       "phases": [
 *         { "name": "chase", "sections": 340,
 *           "mix": {...}, "data": {...}, "branches": {...},
 *           "code": {...}, "ilp": {...}, "quirks": {...} }
 *       ]
 *     }
 *
 * The round trip is bit-identical in both directions: serializing a
 * WorkloadSpec and parsing the text back reproduces every field
 * exactly (shortest-round-trip doubles, exact integers), and parsing
 * a canonical document and re-serializing it reproduces the same
 * bytes. That property is what lets `mtperf workloads --export`
 * reproduce the committed spec files byte for byte, and a spec
 * directory stand in for the embedded suite without perturbing a
 * single simulated counter.
 *
 * Strictness: every field is required, unknown or duplicate keys are
 * rejected, byte counts must be integral, and PhaseParams::validate()
 * runs on every phase at load time. All loader errors are thrown as
 * UsageError (CLI exit code 2) naming the offending file, JSON path
 * and field — a workload spec configures the run, so a bad one is a
 * usage problem, never a silent default.
 */

#ifndef MTPERF_WORKLOAD_SPEC_IO_H_
#define MTPERF_WORKLOAD_SPEC_IO_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "workload/phase.h"

namespace mtperf::workload {

/** Schema version this build reads and writes. */
constexpr std::uint64_t kWorkloadSpecVersion = 1;

/** Top-level member naming the schema version. */
inline constexpr const char *kWorkloadSpecVersionKey =
    "mtperf_workload";

/** Canonical JSON text of @p spec (2-space indent, no trailing \n). */
std::string workloadSpecToJson(const WorkloadSpec &spec);

/**
 * Build a WorkloadSpec from a parsed JSON document.
 * @p source names the input in error messages.
 * @throw UsageError naming @p source, the JSON path and the field on
 * any schema violation or validate() failure.
 */
WorkloadSpec workloadSpecFromJson(const json::JsonValue &root,
                                  const std::string &source);

/** Parse @p text as a workload-spec document. @throw UsageError. */
WorkloadSpec parseWorkloadSpec(std::string_view text,
                               const std::string &source);

/**
 * Load a spec file (or standard input when @p path is "-").
 * @throw UsageError naming the file on any read, parse, schema or
 * validation problem.
 */
WorkloadSpec loadWorkloadSpecFile(const std::string &path);

/** Atomically write @p spec's canonical JSON to @p path. */
void saveWorkloadSpecFile(const std::string &path,
                          const WorkloadSpec &spec);

/**
 * Load every "*.json" file in @p dir, sorted by filename.
 * @throw UsageError when the directory cannot be read, any file is
 * invalid, or two files define the same workload name.
 */
std::vector<WorkloadSpec> loadWorkloadSpecDir(const std::string &dir);

/** A committed spec file built into the binary. */
struct EmbeddedSpec
{
    std::string_view name; //!< workload name = file name without .json
    std::string_view text; //!< the file's bytes
};

/**
 * The *.json files in specs/, in the order specs/suite.txt lists
 * them. The build generates the definition (embed_specs.cmake).
 */
std::span<const EmbeddedSpec> embeddedSuiteSpecs();

/** The *.json files in specs/oracle/, in filename order. */
std::span<const EmbeddedSpec> embeddedOracleSpecs();

/**
 * Parse @p files in order through parseWorkloadSpec(), counting each
 * in workload.specs_loaded.
 * @throw UsageError naming the file when one is invalid or defines a
 * workload whose name differs from its file name.
 */
std::vector<WorkloadSpec>
loadEmbeddedSpecs(std::span<const EmbeddedSpec> files);

} // namespace mtperf::workload

#endif // MTPERF_WORKLOAD_SPEC_IO_H_
