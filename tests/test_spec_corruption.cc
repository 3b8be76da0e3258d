/**
 * @file
 * Corruption corpus over workload spec files: every truncation and a
 * bit-flip sweep must never crash, never silently fall back to a
 * default workload, and must name the damaged file when they error.
 */

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "common/logging.h"
#include "workload/spec_io.h"
#include "workload/spec_suite.h"

#include "corruption_corpus.h"

namespace mtperf::workload {
namespace {

class SpecCorruptionTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = testing::TempDir() + "/mtperf_spec_corruption_" +
               std::to_string(::getpid());
        std::filesystem::remove_all(dir_); // stale corpus files
        std::filesystem::create_directories(dir_);
        path_ = dir_ + "/victim.json";
        spec_ = specLikeSuite().front();
        saveWorkloadSpecFile(path_, spec_);
        bytes_ = testutil::slurpFile(path_);
        ASSERT_FALSE(bytes_.empty());
    }

    std::string dir_, path_, bytes_;
    WorkloadSpec spec_;
};

TEST_F(SpecCorruptionTest, EveryTruncationIsDetected)
{
    // Spec files end at the closing brace with no trailing newline,
    // so *every* proper prefix is an invalid document. Each cut must
    // be a clean FatalError naming the file — never a crash, never a
    // silently shorter workload.
    testutil::forEachTruncation(bytes_, path_, [&](std::size_t len) {
        try {
            loadWorkloadSpecFile(path_);
            FAIL() << "truncation to " << len
                   << " bytes was not detected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(path_),
                      std::string::npos)
                << "truncation to " << len << ": " << e.what();
        }
    });
}

TEST_F(SpecCorruptionTest, BitFlipsNeverCrashOrSilentlyDefault)
{
    // Stride keeps the corpus fast (~8 flips per sampled byte) while
    // still covering every region of the document.
    testutil::forEachBitFlip(
        bytes_, path_,
        [&](std::size_t offset, int bit) {
            try {
                const WorkloadSpec loaded = loadWorkloadSpecFile(path_);
                // A flip inside a number or name can yield a
                // different-but-valid document; it must still be a
                // fully validated spec, not the compiled-in default.
                for (const auto &phase : loaded.phases)
                    phase.params.validate();
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(path_),
                          std::string::npos)
                    << "flip at byte " << offset << " bit " << bit
                    << ": " << e.what();
            }
            // Any other exception type escapes and fails the test.
        },
        /*stride=*/5);
}

TEST_F(SpecCorruptionTest, CliExitsTwoWithThePathForEachDamageKind)
{
    const std::string canon = workloadSpecToJson(spec_);
    struct Damage
    {
        const char *label;
        std::string text;
    };
    std::vector<Damage> corpus;
    corpus.push_back({"truncation", canon.substr(0, canon.size() / 2)});
    {
        std::string t = canon;
        const auto pos = t.find("\"sections\": ");
        const auto end = t.find(',', pos);
        t.replace(pos, end - pos, "\"sections\": \"many\"");
        corpus.push_back({"wrong type", t});
    }
    {
        std::string t = canon;
        const auto pos = t.find("\"name\"");
        t.insert(pos, "\"name\": \"twice\",\n  ");
        corpus.push_back({"duplicate key", t});
    }
    {
        std::string t = canon;
        t.replace(t.find("\"mtperf_workload\": 1"), 20,
                  "\"mtperf_workload\": 99");
        corpus.push_back({"future version", t});
    }
    {
        std::string t = canon;
        t.replace(t.find("\"lcp_frac\""), 10, "\"lcp_fraq\"");
        corpus.push_back({"unknown member", t});
    }
    {
        std::string t = canon;
        const auto pos = t.find("\"load\": ");
        t.replace(pos, t.find(',', pos) - pos, "\"load\": 2.5");
        corpus.push_back({"out-of-range value", t});
    }

    for (const auto &damage : corpus) {
        const std::string bad = dir_ + "/damaged.json";
        testutil::writeFileBytes(bad, damage.text);
        std::ostringstream out;
        const int status = cli::runCommand(
            "simulate",
            {"--workload-file", bad, "--out", dir_ + "/never.csv"},
            out);
        EXPECT_EQ(status, 2) << damage.label << ": " << out.str();
        EXPECT_NE(out.str().find("usage error:"), std::string::npos)
            << damage.label;
        EXPECT_NE(out.str().find(bad), std::string::npos)
            << damage.label << " must name the file: " << out.str();
        EXPECT_FALSE(
            std::filesystem::exists(dir_ + "/never.csv"))
            << damage.label << " must not produce output";
    }
}

TEST_F(SpecCorruptionTest, DamagedSpecInDirectoryIsNamed)
{
    testutil::writeFileBytes(dir_ + "/evil.json", "{\"a\": [}");
    try {
        loadWorkloadSpecDir(dir_);
        FAIL() << "damaged file in directory was not detected";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("evil.json"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(dir_ + "/evil.json");
}

} // namespace
} // namespace mtperf::workload
