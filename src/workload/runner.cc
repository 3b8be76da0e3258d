#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>

#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/stream_gen.h"

namespace mtperf::workload {

namespace {

double
jitterFraction(double value, double jitter, Rng &rng)
{
    return std::clamp(value * (1.0 + rng.uniform(-jitter, jitter)), 0.0,
                      1.0);
}

std::uint64_t
jitterBytes(std::uint64_t value, double jitter, Rng &rng,
            std::uint64_t floor_bytes)
{
    const double scaled =
        static_cast<double>(value) * (1.0 + rng.uniform(-jitter, jitter));
    return std::max<std::uint64_t>(
        floor_bytes, static_cast<std::uint64_t>(scaled));
}

/**
 * Rescale @p fracs by 1/sum when their sum exceeds 1. The rescaled sum
 * can still round to just above 1 (to 1.0000000000000002 for a
 * bwaves_like section at seed 208), so the largest fraction then
 * steps down one ulp at a time until the sum, added in the order
 * PhaseParams::validate() adds it, is at most 1.
 */
void
capSumAtOne(std::initializer_list<double *> fracs)
{
    const auto sum = [&] {
        double total = 0.0;
        for (const double *f : fracs)
            total += *f;
        return total;
    };
    const double total = sum();
    if (total <= 1.0)
        return;
    const double scale = 1.0 / total;
    for (double *f : fracs)
        *f *= scale;
    double *largest = *std::max_element(
        fracs.begin(), fracs.end(),
        [](const double *a, const double *b) { return *a < *b; });
    while (sum() > 1.0)
        *largest = std::nextafter(*largest, 0.0);
}

} // namespace

PhaseParams
jitterPhase(const PhaseParams &params, double jitter, Rng &rng)
{
    if (jitter <= 0.0)
        return params;
    PhaseParams p = params;
    p.loadFrac = jitterFraction(p.loadFrac, jitter, rng);
    p.storeFrac = jitterFraction(p.storeFrac, jitter, rng);
    p.branchFrac = jitterFraction(p.branchFrac, jitter, rng);
    p.fpAddFrac = jitterFraction(p.fpAddFrac, jitter, rng);
    p.fpMulFrac = jitterFraction(p.fpMulFrac, jitter, rng);
    p.fpDivFrac = jitterFraction(p.fpDivFrac, jitter, rng);
    p.intMulFrac = jitterFraction(p.intMulFrac, jitter, rng);
    // Renormalize if the jitter pushed the mix above 1.
    capSumAtOne({&p.loadFrac, &p.storeFrac, &p.branchFrac, &p.fpAddFrac,
                 &p.fpMulFrac, &p.fpDivFrac, &p.intMulFrac});

    p.workingSetBytes = jitterBytes(p.workingSetBytes, jitter, rng, 4096);
    p.hotFrac = jitterFraction(p.hotFrac, jitter, rng);
    p.hotBytes = jitterBytes(p.hotBytes, jitter, rng, 1024);
    p.codeFootprintBytes =
        jitterBytes(p.codeFootprintBytes, jitter, rng, 1024);
    p.pointerChaseFrac = jitterFraction(p.pointerChaseFrac, jitter, rng);
    p.streamFrac = jitterFraction(p.streamFrac, jitter, rng);
    capSumAtOne({&p.pointerChaseFrac, &p.streamFrac});
    p.chasePageLocalFrac =
        jitterFraction(p.chasePageLocalFrac, jitter * 0.3, rng);
    p.branchEntropy = jitterFraction(p.branchEntropy, jitter, rng);
    p.lcpFrac = jitterFraction(p.lcpFrac, jitter, rng);
    p.misalignedFrac = jitterFraction(p.misalignedFrac, jitter, rng);
    p.storeForwardFrac = jitterFraction(p.storeForwardFrac, jitter, rng);
    p.storeAddrSlowFrac =
        jitterFraction(p.storeAddrSlowFrac, jitter, rng);
    p.depNoneFrac = jitterFraction(p.depNoneFrac, jitter, rng);
    return p;
}

std::vector<SectionRecord>
runWorkload(const WorkloadSpec &spec, const RunnerOptions &options)
{
    if (spec.phases.empty())
        mtperf_fatal("workload '", spec.name, "' has no phases");
    if (options.instructionsPerSection == 0)
        mtperf_fatal("instructionsPerSection must be positive");
    MTPERF_FAULT_POINT("sim.workload.fail");

    obs::ScopedSpan span("sim", "sim.workload " + spec.name);
    static obs::Counter &sectionsSimulated =
        obs::counter("sim.sections_simulated");
    static obs::Counter &instructionsExecuted =
        obs::counter("sim.instructions_executed");
    static obs::Histogram &sectionMicros =
        obs::histogram("sim.section_micros");

    // Per-workload deterministic seeds, independent of suite order.
    std::uint64_t name_hash = 1469598103934665603ULL;
    for (char c : spec.name)
        name_hash = (name_hash ^ static_cast<unsigned char>(c)) *
                    1099511628211ULL;
    Rng jitter_rng(options.seed ^ name_hash);

    uarch::Core core(options.coreConfig);
    std::vector<SectionRecord> records;
    std::size_t section_index = 0;

    for (const auto &phase_spec : spec.phases) {
        const auto sections = static_cast<std::size_t>(std::llround(
            static_cast<double>(phase_spec.sections) *
            options.sectionScale));
        if (sections == 0)
            continue;

        StreamGenerator gen(phase_spec.params,
                            options.seed ^ name_hash ^
                                (section_index * 0x9e3779b9ULL + 1));

        for (std::size_t s = 0; s < sections; ++s) {
            gen.setParams(jitterPhase(phase_spec.params,
                                      options.paramJitter, jitter_rng));
            const auto wall_start = std::chrono::steady_clock::now();
            const uarch::EventCounters before = core.counters();
            for (std::uint64_t i = 0;
                 i < options.instructionsPerSection; ++i) {
                core.execute(gen.next());
            }
            sectionMicros.record(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count());
            SectionRecord record;
            record.workload = spec.name;
            record.phase = phase_spec.params.name;
            record.sectionIndex = section_index++;
            record.counters = core.counters().delta(before);
            records.push_back(std::move(record));
        }
    }
    sectionsSimulated.add(records.size());
    instructionsExecuted.add(records.size() *
                             options.instructionsPerSection);
    return records;
}

std::vector<SectionRecord>
runSuite(const std::vector<WorkloadSpec> &suite,
         const RunnerOptions &options)
{
    // Workloads are independent simulations with name-keyed seeds
    // (see runWorkload), so they can run concurrently; merging in
    // suite order keeps the record stream byte-identical to a serial
    // run regardless of thread count.
    auto per_workload =
        parallelMap(globalPool(), suite.size(), [&](std::size_t i) {
            return runWorkload(suite[i], options);
        });

    std::vector<SectionRecord> all;
    std::size_t total = 0;
    for (const auto &records : per_workload)
        total += records.size();
    all.reserve(total);
    for (auto &records : per_workload) {
        all.insert(all.end(), std::make_move_iterator(records.begin()),
                   std::make_move_iterator(records.end()));
    }
    return all;
}

} // namespace mtperf::workload
