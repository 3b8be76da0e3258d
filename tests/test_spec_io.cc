/**
 * @file
 * Tests for workload-spec serialization: the bit-identical round trip
 * and the strictness of the loader.
 */

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "workload/spec_io.h"
#include "workload/spec_suite.h"

namespace mtperf::workload {
namespace {

/** Every field of @p a equals @p b exactly (bitwise for doubles). */
void
expectSpecEq(const WorkloadSpec &a, const WorkloadSpec &b)
{
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.phases.size(), b.phases.size()) << a.name;
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        const PhaseParams &p = a.phases[i].params;
        const PhaseParams &q = b.phases[i].params;
        EXPECT_EQ(a.phases[i].sections, b.phases[i].sections);
        EXPECT_EQ(p.name, q.name);
        EXPECT_EQ(p.loadFrac, q.loadFrac);
        EXPECT_EQ(p.storeFrac, q.storeFrac);
        EXPECT_EQ(p.branchFrac, q.branchFrac);
        EXPECT_EQ(p.fpAddFrac, q.fpAddFrac);
        EXPECT_EQ(p.fpMulFrac, q.fpMulFrac);
        EXPECT_EQ(p.fpDivFrac, q.fpDivFrac);
        EXPECT_EQ(p.intMulFrac, q.intMulFrac);
        EXPECT_EQ(p.workingSetBytes, q.workingSetBytes);
        EXPECT_EQ(p.hotFrac, q.hotFrac);
        EXPECT_EQ(p.hotBytes, q.hotBytes);
        EXPECT_EQ(p.pointerChaseFrac, q.pointerChaseFrac);
        EXPECT_EQ(p.chasePageLocalFrac, q.chasePageLocalFrac);
        EXPECT_EQ(p.streamFrac, q.streamFrac);
        EXPECT_EQ(p.strideBytes, q.strideBytes);
        EXPECT_EQ(p.zipfS, q.zipfS);
        EXPECT_EQ(p.branchEntropy, q.branchEntropy);
        EXPECT_EQ(p.takenBias, q.takenBias);
        EXPECT_EQ(p.codeFootprintBytes, q.codeFootprintBytes);
        EXPECT_EQ(p.codeZipfS, q.codeZipfS);
        EXPECT_EQ(p.farJumpFrac, q.farJumpFrac);
        EXPECT_EQ(p.depGeoP, q.depGeoP);
        EXPECT_EQ(p.depNoneFrac, q.depNoneFrac);
        EXPECT_EQ(p.lcpFrac, q.lcpFrac);
        EXPECT_EQ(p.misalignedFrac, q.misalignedFrac);
        EXPECT_EQ(p.storeForwardFrac, q.storeForwardFrac);
        EXPECT_EQ(p.storeForwardPartialFrac, q.storeForwardPartialFrac);
        EXPECT_EQ(p.storeAddrSlowFrac, q.storeAddrSlowFrac);
    }
}

/** The loader error for @p text, which must throw UsageError. */
std::string
loadError(const std::string &text, const std::string &source = "t.json")
{
    try {
        parseWorkloadSpec(text, source);
    } catch (const UsageError &e) {
        return e.what();
    }
    ADD_FAILURE() << "spec parse did not throw UsageError";
    return "";
}

TEST(SpecIo, EveryCompiledWorkloadRoundTripsBitIdentically)
{
    for (const auto &spec : specLikeSuite()) {
        const std::string text = workloadSpecToJson(spec);
        const WorkloadSpec back = parseWorkloadSpec(text, spec.name);
        expectSpecEq(spec, back);
        // ...and the canonical text itself round-trips byte for byte.
        EXPECT_EQ(workloadSpecToJson(back), text) << spec.name;
    }
}

TEST(SpecIo, EmbeddedSpecMustDefineTheWorkloadItsFileNames)
{
    const EmbeddedSpec first = embeddedSuiteSpecs().front();
    EXPECT_EQ(loadEmbeddedSpecs({&first, 1}).front().name, first.name);

    const EmbeddedSpec renamed{"renamed_like", first.text};
    try {
        loadEmbeddedSpecs({&renamed, 1});
        FAIL() << "a spec under another file name did not throw";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("embedded renamed_like.json"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SpecIo, FileRoundTripIsExact)
{
    const std::string dir = testing::TempDir() + "/mtperf_spec_io";
    std::filesystem::create_directories(dir);
    const auto spec = specLikeSuite().front();
    const std::string path = dir + "/w.json";
    saveWorkloadSpecFile(path, spec);
    expectSpecEq(spec, loadWorkloadSpecFile(path));

    // The file holds exactly the canonical text: no trailing newline,
    // so every truncation of it is a detectable parse error.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, workloadSpecToJson(spec));
    EXPECT_EQ(bytes.back(), '}');
}

TEST(SpecIo, ValidateRunsAtLoadNamingFieldAndFile)
{
    std::string text = workloadSpecToJson(specLikeSuite().front());
    const auto pos = text.find("\"load\": ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, text.find(',', pos) - pos, "\"load\": 1.5");
    const std::string e = loadError(text, "broken.json");
    EXPECT_NE(e.find("broken.json"), std::string::npos) << e;
    EXPECT_NE(e.find("loadFrac"), std::string::npos) << e;
}

TEST(SpecIo, SchemaViolationsNamePathAndSource)
{
    const std::string canon =
        workloadSpecToJson(specLikeSuite().front());

    // Unknown member: all known fields present plus a stray one.
    {
        std::string text = canon;
        const auto pos = text.find("\"entropy\"");
        text.insert(pos, "\"entropi\": 0,\n        ");
        const std::string e = loadError(text);
        EXPECT_NE(e.find("t.json"), std::string::npos) << e;
        EXPECT_NE(e.find("entropi"), std::string::npos) << e;
    }
    // Missing member (a misspelling is reported as the absence of the
    // field the schema wanted).
    {
        std::string text = canon;
        const auto pos = text.find("\"taken_bias\"");
        text.replace(pos, 12, "\"taken_bia2\"");
        const std::string e = loadError(text);
        EXPECT_NE(e.find("taken_bias"), std::string::npos) << e;
        EXPECT_NE(e.find("branches"), std::string::npos) << e;
    }
    // Wrong type: a byte count must be an integral literal.
    {
        std::string text = canon;
        const auto pos = text.find("\"working_set_bytes\": ");
        const auto end = text.find(',', pos);
        text.replace(pos, end - pos,
                     "\"working_set_bytes\": \"big\"");
        const std::string e = loadError(text);
        EXPECT_NE(e.find("working_set_bytes"), std::string::npos) << e;
    }
    // Fractional byte count: rejected, never floored.
    {
        std::string text = canon;
        const auto pos = text.find("\"hot_bytes\": ");
        const auto end = text.find(',', pos);
        text.replace(pos, end - pos, "\"hot_bytes\": 1024.5");
        const std::string e = loadError(text);
        EXPECT_NE(e.find("hot_bytes"), std::string::npos) << e;
    }
}

TEST(SpecIo, VersionPolicy)
{
    const std::string canon =
        workloadSpecToJson(specLikeSuite().front());

    std::string text = canon;
    const auto pos = text.find("\"mtperf_workload\": 1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 20, "\"mtperf_workload\": 2");
    const std::string e = loadError(text);
    EXPECT_NE(e.find("version"), std::string::npos) << e;
    EXPECT_NE(e.find("2"), std::string::npos) << e;

    // A document without the version member is not a workload spec.
    const std::string e2 = loadError("{\"name\": \"x\", \"phases\": []}");
    EXPECT_NE(e2.find(kWorkloadSpecVersionKey), std::string::npos)
        << e2;
}

TEST(SpecIo, EmptyPhasesRejected)
{
    const std::string e = loadError(
        "{\"mtperf_workload\": 1, \"name\": \"x\", \"phases\": []}");
    EXPECT_NE(e.find("phases"), std::string::npos) << e;
}

TEST(SpecIo, DirLoadSortsAndRejectsDuplicateNames)
{
    const std::string dir = testing::TempDir() + "/mtperf_spec_dir";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto spec = specLikeSuite().front();
    spec.name = "bbb";
    saveWorkloadSpecFile(dir + "/02_second.json", spec);
    spec.name = "aaa";
    saveWorkloadSpecFile(dir + "/01_first.json", spec);

    const auto loaded = loadWorkloadSpecDir(dir);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].name, "aaa"); // filename order
    EXPECT_EQ(loaded[1].name, "bbb");

    // Two files defining the same workload name: an error naming it.
    saveWorkloadSpecFile(dir + "/03_dup.json", spec);
    try {
        loadWorkloadSpecDir(dir);
        FAIL() << "duplicate workload name did not throw";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("aaa"), std::string::npos);
    }

    std::filesystem::remove_all(dir);
    EXPECT_THROW(loadWorkloadSpecDir(dir), UsageError);
}

} // namespace
} // namespace mtperf::workload
