#include "validate/harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "multicore/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "uarch/event_counters.h"
#include "validate/oracle.h"
#include "workload/spec_io.h"
#include "workload/stream_gen.h"

namespace mtperf::validate {

namespace {

void
registerValidateInvariant()
{
    static const bool once = [] {
        obs::registerInvariant("validate.counter_accounting", [] {
            const std::uint64_t checked =
                obs::counter("validate.counters_checked").value();
            const std::uint64_t passed =
                obs::counter("validate.counters_passed").value();
            const std::uint64_t failed =
                obs::counter("validate.counters_failed").value();
            if (passed + failed == checked)
                return std::string();
            std::ostringstream os;
            os << "validate.counters_passed=" << passed
               << " + validate.counters_failed=" << failed
               << " != validate.counters_checked=" << checked;
            return os.str();
        });
        return true;
    }();
    (void)once;
}

/** The --inject-counter-bug rehearsal hook (validated up front). */
void
applyInjectedBug(uarch::EventCounters &measured,
                 const ValidateOptions &options)
{
    if (options.injectCounterBug.empty())
        return;
    std::uint64_t uarch::EventCounters::*member =
        uarch::counterByName(options.injectCounterBug);
    mtperf_assert(member != nullptr,
                  "inject-counter-bug name validated earlier");
    measured.*member *= 2;
}

/** Check @p measured against per-counter @p bounds, in field order. */
WorkloadValidation
checkAgainstBounds(const std::string &workload, OracleFamily family,
                   const uarch::EventCounters &measured,
                   const std::vector<CounterBound> &bounds)
{
    WorkloadValidation validation;
    validation.workload = workload;
    validation.family = familyName(family);
    const auto &fields = uarch::counterFields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const CounterBound &bound = bounds[i];
        mtperf_assert(bound.counter == fields[i].name,
                      "oracle bounds out of counter order");
        CounterCheck check;
        check.counter = bound.counter;
        check.expected = bound.expected;
        check.lo = bound.lo;
        check.hi = bound.hi;
        check.actual = measured.*(fields[i].member);
        const double actual = static_cast<double>(check.actual);
        check.relativeError =
            (actual - bound.expected) /
            std::max(std::abs(bound.expected), 1.0);
        check.pass = actual >= bound.lo && actual <= bound.hi;
        validation.counters.push_back(std::move(check));
    }
    return validation;
}

/** Simulate @p spec and check it; pure in (spec, options). */
WorkloadValidation
validateWorkload(const workload::WorkloadSpec &spec,
                 const ValidateOptions &options)
{
    const OracleFamily family = classifyOracleSpec(spec);
    const std::vector<CounterBound> bounds =
        oracleBounds(spec, options.coreConfig, options.instructions);

    uarch::Core core(options.coreConfig);
    workload::StreamGenerator gen(spec.phases.front().params,
                                  options.seed);
    for (std::uint64_t i = 0; i < options.instructions; ++i)
        core.execute(gen.next());

    uarch::EventCounters measured = core.counters();
    applyInjectedBug(measured, options);
    return checkAgainstBounds(spec.name, family, measured, bounds);
}

/**
 * Co-run the chase pair on a two-core shared L2 and check both lanes
 * against chasePairBounds(). The solo families pin the contention
 * counters at zero; this is the only place they must be nonzero, so a
 * shared L2 that stops attributing interference (or double-counts it)
 * fails here and nowhere else.
 */
std::vector<WorkloadValidation>
validateChasePair(const ValidateOptions &options)
{
    const std::vector<workload::WorkloadSpec> pair = builtinChasePair();
    mtperf_assert(pair.size() == 2, "chase pair has two lanes");
    const std::array<std::vector<CounterBound>, 2> bounds = {
        chasePairBounds(pair[0], pair[1], options.coreConfig,
                        options.instructions),
        chasePairBounds(pair[1], pair[0], options.coreConfig,
                        options.instructions)};

    multicore::MulticoreSystem system(options.coreConfig, 2);
    std::vector<std::optional<workload::StreamGenerator>> gens(2);
    std::array<std::uint64_t, 2> executed{};
    std::vector<bool> runnable(2, true);
    for (std::uint32_t c = 0; c < 2; ++c) {
        // The same per-core salt the co-run runner uses, so identical
        // lane specs still walk distinct deterministic streams.
        gens[c].emplace(pair[c].phases.front().params,
                        options.seed ^ (c * 0x9e3779b97f4a7c15ULL));
    }
    while (runnable[0] || runnable[1]) {
        const std::uint32_t c = system.nextCore(runnable);
        system.core(c).execute(gens[c]->next());
        if (++executed[c] == options.instructions)
            runnable[c] = false;
    }

    std::vector<WorkloadValidation> validations;
    for (std::uint32_t c = 0; c < 2; ++c) {
        uarch::EventCounters measured = system.counters(c);
        applyInjectedBug(measured, options);
        validations.push_back(
            checkAgainstBounds(pair[c].name, OracleFamily::ChasePair,
                               measured, bounds[c]));
    }
    return validations;
}

} // namespace

ValidateReport
runValidation(const ValidateOptions &options)
{
    registerValidateInvariant();
    if (!options.injectCounterBug.empty() &&
        uarch::counterByName(options.injectCounterBug) == nullptr) {
        throw UsageError("--inject-counter-bug: no counter named '" +
                         options.injectCounterBug + "'");
    }
    const std::vector<workload::WorkloadSpec> suite =
        options.oracleDir.empty()
            ? workload::loadEmbeddedSpecs(workload::embeddedOracleSpecs())
            : workload::loadWorkloadSpecDir(options.oracleDir);
    if (suite.empty())
        mtperf_fatal("oracle suite is empty");
    // Classify (and thereby reject unanalyzable specs) up front so a
    // bad directory fails before any simulation runs.
    for (const workload::WorkloadSpec &spec : suite)
        (void)classifyOracleSpec(spec);

    ValidateReport report;
    report.instructions = options.instructions;
    report.seed = options.seed;

    obs::ScopedSpan span("validate", "validate.run");
    report.workloads =
        parallelMap(globalPool(), suite.size(), [&](std::size_t i) {
            return validateWorkload(suite[i], options);
        });

    // The co-run chase pair rides along after the solo sweep: one
    // deterministic two-core scenario, so its position in the report
    // is fixed and the whole run stays bit-identical at any --threads.
    // Short runs skip it — its bounds are calibrated for steady state.
    if (options.instructions >= kChasePairMinInstructions) {
        for (WorkloadValidation &v : validateChasePair(options))
            report.workloads.push_back(std::move(v));
    } else {
        informAs("validate", "skipping chase_pair: needs >= ",
                 kChasePairMinInstructions,
                 " instructions per lane for steady state");
    }

    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    for (const WorkloadValidation &w : report.workloads)
        for (const CounterCheck &c : w.counters)
            (c.pass ? passed : failed) += 1;
    obs::counter("validate.counters_checked").add(passed + failed);
    obs::counter("validate.counters_passed").add(passed);
    obs::counter("validate.counters_failed").add(failed);
    return report;
}

} // namespace mtperf::validate
