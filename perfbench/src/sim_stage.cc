/**
 * @file
 * The simulate stage: the suite through runSuite, then the section CSV
 * written as `mtperf simulate` writes it.
 */

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/json.h"
#include "common/parallel.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/section_collector.h"
#include "stages.h"
#include "trace.h"
#include "uarch/core.h"
#include "workload/runner.h"
#include "workload/stream_gen.h"

namespace perfbench {

using namespace mtperf;

namespace {

/**
 * Simulate @p specs with runSuite. The span covers workload/ and
 * uarch/ together (workload.gen_share splits them). Traced, the obs
 * session records the "sim.workload <spec>" span runWorkload keeps for
 * each spec, and @p spec_seconds gets their durations in suite order.
 */
std::vector<workload::SectionRecord>
simulateSuite(const std::vector<workload::WorkloadSpec> &specs,
              const workload::RunnerOptions &options,
              std::vector<double> &spec_seconds)
{
    Span span("sim.run_suite");
    if (!Trace::on())
        return workload::runSuite(specs, options);

    obs::startTrace();
    auto records = workload::runSuite(specs, options);
    obs::stopTrace();
    span.end();

    const std::string prefix = "sim.workload ";
    spec_seconds.assign(specs.size(), -1.0);
    const json::JsonValue trace = json::parseJson(obs::traceToJson());
    for (const json::JsonValue &event : trace.find("traceEvents")->array()) {
        const std::string &name = event.find("name")->string();
        if (event.find("ph")->string() != "X" || name.rfind(prefix, 0) != 0)
            continue;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (name.compare(prefix.size(), std::string::npos,
                             specs[i].name) == 0)
                spec_seconds[i] = event.find("dur")->number() * 1e-6;
        }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (spec_seconds[i] < 0.0)
            throw std::runtime_error("no sim.workload span for " +
                                     specs[i].name);
    }
    return records;
}

/**
 * Time StreamGenerator::next into a buffer and Core::execute over that
 * buffer, separately, for every phase of every spec.
 */
void
probeGeneratorAndCore(const std::vector<workload::WorkloadSpec> &specs,
                      std::uint64_t seed, Metrics &metrics,
                      Outcome &outcome)
{
    constexpr std::size_t kOps = 20000;
    Span stage("stage.gen_core_probe");
    std::vector<uarch::MicroOp> buffer(kOps);
    double gen_seconds = 0.0;
    double core_seconds = 0.0;
    std::uint64_t ops = 0;
    for (const auto &spec : specs) {
        uarch::Core core;
        for (std::size_t p = 0; p < spec.phases.size(); ++p) {
            workload::StreamGenerator gen(spec.phases[p].params, seed + p);
            {
                Span span("workload.gen", spec.name);
                for (auto &op : buffer)
                    op = gen.next();
                gen_seconds += span.end();
            }
            {
                Span span("uarch.core_execute", spec.name);
                for (const auto &op : buffer)
                    core.execute(op);
                core_seconds += span.end();
            }
            ops += kOps;
        }
        ++outcome.attempted;
        outcome.check(core.instructionsRetired() ==
                          kOps * spec.phases.size(),
                      "core retired a different op count on " + spec.name);
    }
    const double n = static_cast<double>(ops);
    metrics.set("workload.gen_ns_per_op", gen_seconds * 1e9 / n, "ns");
    metrics.set("uarch.core_ns_per_op", core_seconds * 1e9 / n, "ns");
    metrics.set("workload.gen_share",
                gen_seconds / (gen_seconds + core_seconds), "ratio");
}

/** One repetition's measurements. */
struct SimRep
{
    double wallSeconds = 0.0;
    double cpuNs = 0.0;
    double toDatasetSeconds = 0.0;
    double writeCsvSeconds = 0.0;
    double poolBusyShare = 0.0;
    std::vector<double> specSeconds;
};

} // namespace

void
runSimStage(const Fixture &fixture, double section_scale,
            const StageBudget &budget, Metrics &metrics, Outcome &outcome)
{
    workload::RunnerOptions options;
    options.sectionScale = section_scale;
    const std::string csv_path = fixture.workDir + "/sim_sections.csv";

    obs::Histogram &pool_task_micros = obs::histogram("pool.task_micros");
    obs::Counter &decode_lookups = obs::counter("decode.cache_lookups");
    obs::Counter &decode_hits = obs::counter("decode.cache_hits");

    std::vector<SimRep> reps;
    std::vector<workload::SectionRecord> records;
    std::uint32_t first_crc = 0;
    std::uint64_t lookups = 0, hits = 0;
    double untraced_wall = 0.0;
    const bool traced = Trace::on();
    // The overhead probe is one extra, untraced repetition.
    const int min_reps =
        budget.minReps + (traced && budget.probeOverhead ? 1 : 0);
    RepPacer pacer(budget.seconds, min_reps);
    for (int rep = 0; pacer.startAnother(rep); ++rep) {
        // A traced run's primary stage first times one untraced
        // repetition, the reference for the tracing overhead.
        const bool probe = traced && budget.probeOverhead && rep == 0;
        Trace::enable(traced && !probe);

        SimRep r;
        const obs::HistogramSnapshot pool_before =
            pool_task_micros.snapshot();
        const std::uint64_t lookups_before = decode_lookups.value();
        const std::uint64_t hits_before = decode_hits.value();
        const std::int64_t cpu_before = processCpuNs();
        Span stage("stage.sim");
        records = simulateSuite(fixture.specs, options, r.specSeconds);
        Dataset ds;
        {
            Span span("perf.sections_to_dataset");
            ds = perf::sectionsToDataset(records);
            r.toDatasetSeconds = span.end();
        }
        {
            Span span("data.write_csv");
            writeDatasetCsvFile(csv_path, ds);
            r.writeCsvSeconds = span.end();
        }
        r.wallSeconds = stage.end();
        r.cpuNs = static_cast<double>(processCpuNs() - cpu_before);
        obs::HistogramSnapshot pool_delta = pool_task_micros.snapshot();
        pool_delta.subtract(pool_before);
        r.poolBusyShare =
            pool_delta.sum() /
            (r.wallSeconds * 1e6 *
             static_cast<double>(globalThreadCount()));
        lookups = decode_lookups.value() - lookups_before;
        hits = decode_hits.value() - hits_before;

        std::uint64_t csv_bytes = 0;
        const std::uint32_t crc = fileCrc32(csv_path, &csv_bytes);
        ++outcome.attempted;
        if (rep == 0)
            first_crc = crc;
        if (crc != first_crc) {
            ++outcome.failed;
            outcome.check(false, "section CSV digest changed between "
                                 "simulate repetitions");
        }
        if (probe)
            untraced_wall = r.wallSeconds;
        else
            reps.push_back(std::move(r));
    }
    Trace::enable(traced);

    const double instructions =
        static_cast<double>(records.size()) *
        static_cast<double>(options.instructionsPerSection);
    std::vector<double> minstr_per_s, cpu_ns_per_instr, to_dataset,
        write_csv, busy, critical;
    for (const SimRep &r : reps) {
        minstr_per_s.push_back(instructions / r.wallSeconds / 1e6);
        cpu_ns_per_instr.push_back(r.cpuNs / instructions);
        to_dataset.push_back(r.toDatasetSeconds);
        write_csv.push_back(r.writeCsvSeconds);
        busy.push_back(r.poolBusyShare);
        if (!r.specSeconds.empty())
            critical.push_back(*std::max_element(r.specSeconds.begin(),
                                                 r.specSeconds.end()));
    }
    // The best repetition: the host's slow episodes only ever add time.
    metrics.set("sim_minstr_per_s",
                *std::max_element(minstr_per_s.begin(), minstr_per_s.end()),
                "Minstr/s");
    metrics.set("sim_cpu_ns_per_instr",
                *std::min_element(cpu_ns_per_instr.begin(),
                                  cpu_ns_per_instr.end()),
                "ns/instr");
    // Exact counts: a speed-only change leaves every one identical.
    uarch::EventCounters total;
    for (const auto &record : records) {
        for (const auto &field : uarch::counterFields())
            total.*field.member += record.counters.*field.member;
    }
    const double kilo_instr = static_cast<double>(total.instRetired) / 1e3;
    metrics.set("sim.instructions", static_cast<double>(total.instRetired),
                "count");
    metrics.set("sim.sections", static_cast<double>(records.size()),
                "count");
    metrics.set("uarch.cpi_mean",
                static_cast<double>(total.cycles) /
                    static_cast<double>(total.instRetired),
                "CPI");
    metrics.set("uarch.l1d_mpki",
                static_cast<double>(total.l1dLineMiss) / kilo_instr, "MPKI");
    metrics.set("uarch.l2_mpki",
                static_cast<double>(total.l2LineMiss) / kilo_instr, "MPKI");
    metrics.set("uarch.dtlb_mpki",
                static_cast<double>(total.dtlbAnyMiss) / kilo_instr, "MPKI");
    metrics.set("uarch.br_mpki",
                static_cast<double>(total.brMispredicted) / kilo_instr,
                "MPKI");
    metrics.set("uarch.decode_cache_hit_rate",
                lookups > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "ratio");
    metrics.set("sim.csv_crc32", static_cast<double>(first_crc), "crc32");

    if (!traced)
        return;

    if (budget.probeOverhead && untraced_wall > 0.0) {
        std::vector<double> walls;
        for (const SimRep &r : reps)
            walls.push_back(r.wallSeconds);
        metrics.set("trace.overhead_pct",
                    (median(walls) - untraced_wall) / untraced_wall * 100.0,
                    "%");
    }
    for (std::size_t i = 0; i < fixture.specs.size(); ++i) {
        std::vector<double> seconds;
        for (const SimRep &r : reps)
            seconds.push_back(r.specSeconds[i]);
        metrics.set("sim.spec_s." + fixture.specs[i].name, median(seconds),
                    "s");
    }
    metrics.set("sim.critical_path_s", median(critical), "s");
    metrics.set("common.pool.busy_share", median(busy), "ratio");
    metrics.set("perf.sections_to_dataset_s", median(to_dataset), "s");
    metrics.set("data.write_csv_s", median(write_csv), "s");

    probeGeneratorAndCore(fixture.specs, options.seed, metrics, outcome);
}

} // namespace perfbench
