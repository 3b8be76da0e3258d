/**
 * @file
 * The workload registry behind specLikeSuite().
 *
 * Resolves the suite to the spec files embedded at build time, or to
 * the directory MTPERF_SPEC_DIR names. The resolved suite is cached
 * per process; the registry never silently swallows a broken spec
 * file — every file in a selected directory must load, or the error
 * propagates. Workloads being data means a corrupt spec fails loudly,
 * like a compile error would.
 */

#include "workload/spec_suite.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "workload/spec_io.h"

namespace mtperf::workload {

namespace {

/**
 * Put a loaded suite into canonical order: specs/suite.txt order for
 * the names it lists, then any extra workloads sorted by name. Dataset
 * row order (and thus CSV bytes) therefore does not depend on how the
 * filesystem happened to list the directory.
 */
std::vector<WorkloadSpec>
canonicalSuiteOrder(std::vector<WorkloadSpec> loaded)
{
    std::map<std::string, std::size_t, std::less<>> index;
    for (std::size_t i = 0; i < loaded.size(); ++i)
        index.emplace(loaded[i].name, i);

    std::vector<WorkloadSpec> ordered;
    ordered.reserve(loaded.size());
    for (const EmbeddedSpec &listed : embeddedSuiteSpecs()) {
        const auto it = index.find(listed.name);
        if (it == index.end())
            continue;
        ordered.push_back(std::move(loaded[it->second]));
        index.erase(it);
    }
    // The map iterates the extras in name order.
    for (const auto &[name, i] : index)
        ordered.push_back(std::move(loaded[i]));
    return ordered;
}

struct Registry
{
    std::mutex mutex;
    bool resolved = false;
    std::string source;
    std::vector<WorkloadSpec> suite;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

/** Resolve the suite source; caller holds the registry mutex. */
void
resolveLocked(Registry &reg)
{
    const char *dir = std::getenv("MTPERF_SPEC_DIR");
    if (dir != nullptr && *dir != '\0') {
        reg.suite = canonicalSuiteOrder(loadWorkloadSpecDir(dir));
        reg.source =
            std::string("spec directory ") + dir + " (MTPERF_SPEC_DIR)";
    } else {
        reg.suite = loadEmbeddedSpecs(embeddedSuiteSpecs());
        reg.source = "embedded specs/*.json (specs/suite.txt order)";
    }
    reg.resolved = true;
}

} // namespace

std::vector<WorkloadSpec>
specLikeSuite()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (!reg.resolved)
        resolveLocked(reg);
    return reg.suite;
}

std::string
suiteSourceDescription()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (!reg.resolved)
        resolveLocked(reg);
    return reg.source;
}

void
reloadSuiteRegistry()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.resolved = false;
    reg.suite.clear();
    reg.source.clear();
}

WorkloadSpec
suiteWorkload(const std::string &name)
{
    const auto suite = specLikeSuite();
    for (const auto &spec : suite) {
        if (spec.name == name)
            return spec;
    }
    std::string available;
    for (const auto &spec : suite) {
        if (!available.empty())
            available += ", ";
        available += spec.name;
    }
    mtperf_fatal("no suite workload named '", name,
                 "' (available: ", available, ")");
}

std::vector<std::string>
suiteWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &spec : specLikeSuite())
        names.push_back(spec.name);
    return names;
}

} // namespace mtperf::workload
