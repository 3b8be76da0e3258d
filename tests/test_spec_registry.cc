/**
 * @file
 * Tests for the suite registry: a spec directory holding the embedded
 * suite must reproduce it without perturbing a single output byte.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "data/io.h"
#include "perf/section_collector.h"
#include "workload/runner.h"
#include "workload/spec_io.h"
#include "workload/spec_suite.h"

namespace mtperf::workload {
namespace {

/**
 * Point MTPERF_SPEC_DIR at @p dir (unset it when null) for the scope,
 * then restore.
 */
class SpecDirGuard
{
  public:
    explicit SpecDirGuard(const char *dir)
    {
        const char *old = std::getenv("MTPERF_SPEC_DIR");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (dir != nullptr)
            setenv("MTPERF_SPEC_DIR", dir, 1);
        else
            unsetenv("MTPERF_SPEC_DIR");
        reloadSuiteRegistry();
    }

    ~SpecDirGuard()
    {
        if (had_)
            setenv("MTPERF_SPEC_DIR", old_.c_str(), 1);
        else
            unsetenv("MTPERF_SPEC_DIR");
        reloadSuiteRegistry();
    }

  private:
    bool had_ = false;
    std::string old_;
};

/** Export @p suite as one spec file per workload into a fresh dir. */
std::string
exportSuite(const std::vector<WorkloadSpec> &suite,
            const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto &spec : suite)
        saveWorkloadSpecFile(dir + "/" + spec.name + ".json", spec);
    return dir;
}

/** Simulate @p suite and render the dataset CSV to a string. */
std::string
suiteCsv(const std::vector<WorkloadSpec> &suite, std::size_t threads)
{
    setGlobalThreadCount(threads);
    RunnerOptions options;
    options.instructionsPerSection = 1500;
    options.sectionScale = 0.02;
    const Dataset ds = perf::collectSuiteDataset(suite, options);
    std::ostringstream os;
    writeDatasetCsv(os, ds);
    setGlobalThreadCount(1);
    return os.str();
}

/** The default suite: MTPERF_SPEC_DIR unset selects the embedded one. */
std::vector<WorkloadSpec>
embeddedSuite()
{
    SpecDirGuard guard(nullptr);
    EXPECT_EQ(suiteSourceDescription().find("embedded"), 0u)
        << suiteSourceDescription();
    return specLikeSuite();
}

TEST(SpecRegistry, LoadedSuiteEqualsCompiledBitIdentically)
{
    const auto embedded = embeddedSuite();
    const std::string dir = exportSuite(embedded, "mtperf_reg_bitid");
    SpecDirGuard guard(dir.c_str());

    const auto loaded = specLikeSuite();
    ASSERT_EQ(loaded.size(), embedded.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].name, embedded[i].name) << i;
        EXPECT_EQ(workloadSpecToJson(loaded[i]),
                  workloadSpecToJson(embedded[i]))
            << embedded[i].name;
    }
    EXPECT_NE(suiteSourceDescription().find(dir), std::string::npos);

    // The acceptance bar: simulated section CSVs are byte-identical
    // between the embedded suite and the same specs loaded from a
    // directory, at any thread count.
    const std::string from_embedded = suiteCsv(embedded, 3);
    EXPECT_EQ(suiteCsv(loaded, 1), from_embedded);
    EXPECT_EQ(suiteCsv(loaded, 3), from_embedded);
}

TEST(SpecRegistry, MissingEnvDirectoryFailsLoudly)
{
    SpecDirGuard guard("/nonexistent/mtperf_specs");
    EXPECT_THROW(specLikeSuite(), UsageError);
}

TEST(SpecRegistry, ExtraWorkloadsJoinAfterSuiteSortedByName)
{
    auto suite = embeddedSuite();
    auto extra_b = suite.front();
    extra_b.name = "zz_extra_b";
    auto extra_a = suite.front();
    extra_a.name = "aa_extra_a";
    suite.push_back(extra_b);
    suite.push_back(extra_a);
    const std::string dir = exportSuite(suite, "mtperf_reg_extra");
    SpecDirGuard guard(dir.c_str());

    const auto loaded = specLikeSuite();
    const auto manifest = embeddedSuiteSpecs();
    ASSERT_EQ(loaded.size(), manifest.size() + 2);
    // Known names keep specs/suite.txt order regardless of filename
    // order...
    for (std::size_t i = 0; i < manifest.size(); ++i)
        EXPECT_EQ(loaded[i].name, manifest[i].name);
    // ...and extras follow, sorted by name.
    EXPECT_EQ(loaded[manifest.size()].name, "aa_extra_a");
    EXPECT_EQ(loaded[manifest.size() + 1].name, "zz_extra_b");
}

TEST(SpecRegistry, CorruptSpecInSelectedDirPropagates)
{
    const std::string dir =
        exportSuite({embeddedSuite().front()}, "mtperf_reg_corrupt");
    {
        std::ofstream bad(dir + "/broken.json");
        bad << "{\"mtperf_workload\": 1,";
    }
    SpecDirGuard guard(dir.c_str());
    try {
        specLikeSuite();
        FAIL() << "corrupt spec file did not throw";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("broken.json"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace mtperf::workload
