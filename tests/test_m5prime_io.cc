/**
 * @file
 * Tests for M5Prime model serialization, including the corruption
 * corpus over the checksummed v2 format.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "corruption_corpus.h"
#include "data/io.h"
#include "ml/tree/m5prime.h"
#include "obs/trace.h"

namespace mtperf {
namespace {

Dataset
piecewiseDataset(std::size_t n, std::uint64_t seed = 31)
{
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        const double y = x0 <= 0.5 ? 1.0 + 2.0 * x1 : 10.0 - 3.0 * x1;
        ds.addRow(std::vector<double>{x0, x1},
                  y + rng.normal(0.0, 0.1));
    }
    return ds;
}

/** @p body followed by the checksum footer save() writes. */
std::string
sealed(const std::string &body)
{
    return body + "checksum " + crc32Hex(crc32(body)) + "\n";
}

/** The error load() raises on @p text, or "" when it loads. */
std::string
loadError(const std::string &text)
{
    std::istringstream in(text);
    try {
        M5Prime::load(in, "<fixture>");
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Body lines of a one-attribute model, up to its first node. */
const std::string kHeader = "m5prime-model v2\ntarget y\nattributes 1\n"
                            "a x\ntrainSize 5\noptions 4 0.05 1 1 15 1 0\n";

M5Prime
fittedTree(const Dataset &ds)
{
    M5Options options;
    options.minInstances = 30;
    M5Prime tree(options);
    tree.fit(ds);
    return tree;
}

TEST(M5PrimeIo, RoundTripPredictsIdentically)
{
    const Dataset ds = piecewiseDataset(1000);
    const M5Prime tree = fittedTree(ds);

    std::stringstream buffer;
    tree.save(buffer);
    const M5Prime loaded = M5Prime::load(buffer);

    for (std::size_t r = 0; r < ds.size(); ++r) {
        EXPECT_DOUBLE_EQ(loaded.predict(ds.row(r)),
                         tree.predict(ds.row(r)));
    }
}

TEST(M5PrimeIo, RoundTripPreservesStructure)
{
    const Dataset ds = piecewiseDataset(1500);
    const M5Prime tree = fittedTree(ds);

    std::stringstream buffer;
    tree.save(buffer);
    const M5Prime loaded = M5Prime::load(buffer);

    EXPECT_EQ(loaded.numLeaves(), tree.numLeaves());
    EXPECT_EQ(loaded.depth(), tree.depth());
    EXPECT_EQ(loaded.numNodes(), tree.numNodes());
    EXPECT_TRUE(loaded.schema() == tree.schema());
    EXPECT_EQ(loaded.toString(), tree.toString());
    EXPECT_EQ(loaded.options().minInstances,
              tree.options().minInstances);
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf) {
        EXPECT_EQ(loaded.leafInfo(leaf).count,
                  tree.leafInfo(leaf).count);
        EXPECT_EQ(loaded.leafInfo(leaf).path.size(),
                  tree.leafInfo(leaf).path.size());
    }
}

TEST(M5PrimeIo, RoundTripLeafRoutingAgrees)
{
    const Dataset ds = piecewiseDataset(800);
    const M5Prime tree = fittedTree(ds);
    std::stringstream buffer;
    tree.save(buffer);
    const M5Prime loaded = M5Prime::load(buffer);
    for (std::size_t r = 0; r < ds.size(); ++r) {
        EXPECT_EQ(loaded.leafIndexFor(ds.row(r)),
                  tree.leafIndexFor(ds.row(r)));
    }
}

TEST(M5PrimeIo, FileRoundTrip)
{
    const Dataset ds = piecewiseDataset(500);
    const M5Prime tree = fittedTree(ds);
    const std::string path = testing::TempDir() + "/mtperf_model.m5";
    tree.saveFile(path);
    const M5Prime loaded = M5Prime::loadFile(path);
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{0.3, 0.5}),
                     tree.predict(std::vector<double>{0.3, 0.5}));
}

TEST(M5PrimeIo, PipelineStagesRecordSpans)
{
    // write -> read -> fit -> save -> load, as `mtperf train` and
    // `mtperf predict` run them, each stage under its library span.
    const std::string csv = testing::TempDir() + "/mtperf_spans.csv";
    const std::string model = testing::TempDir() + "/mtperf_spans.m5";
    obs::startTrace();
    writeDatasetCsvFile(csv, piecewiseDataset(300));
    const Dataset ds = readDatasetCsvFile(csv, "y");
    fittedTree(ds).saveFile(model);
    M5Prime::loadFile(model);
    obs::stopTrace();

    std::set<std::string> names;
    const json::JsonValue trace = json::parseJson(obs::traceToJson());
    for (const json::JsonValue &event : trace.find("traceEvents")->array()) {
        if (event.find("ph")->string() == "X")
            names.insert(event.find("name")->string());
    }
    for (const char *name : {"data.write_csv", "data.read_csv",
                             "data.build_dataset", "model.save",
                             "model.load"})
        EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(M5PrimeIo, SingleLeafTreeRoundTrips)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    for (int i = 0; i < 20; ++i)
        ds.addRow(std::vector<double>{double(i)}, 2.0);
    M5Prime tree;
    tree.fit(ds);
    std::stringstream buffer;
    tree.save(buffer);
    const M5Prime loaded = M5Prime::load(buffer);
    EXPECT_EQ(loaded.numLeaves(), 1u);
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{5.0}), 2.0);
}

TEST(M5PrimeIo, MalformedInputsThrow)
{
    // The parser fixtures are sealed, so each passes the footer check
    // and reaches the error it targets.
    const auto expect_error = [](const std::string &text,
                                 const std::string &cause) {
        const std::string what = loadError(text);
        EXPECT_NE(what.find(cause), std::string::npos)
            << "want '" << cause << "', got '" << what << "'";
        EXPECT_NE(what.find("<fixture>"), std::string::npos) << what;
    };
    expect_error("", "expected 'm5prime-model'");
    expect_error("not-a-model v2", "got 'not-a-model'");
    expect_error(sealed("m5prime-model v2\ntarget y\n"),
                 "expected 'attributes'");
    expect_error(sealed(kHeader + "node z\nend\n"),
                 "unknown node kind 'z'");
    // Attribute index out of range in a leaf model term.
    expect_error(sealed(kHeader + "node l 5 1.0 0.1 2.0 1 7 3.5\nend\n"),
                 "references attribute 7 out of range");
    // Missing trailing 'end'.
    expect_error(sealed(kHeader + "node l 5 1.0 0.1 2.0 0\n"),
                 "missing 'end'");
    // The same body without its footer.
    expect_error(kHeader + "node l 5 1.0 0.1 2.0 0\nend\n",
                 "missing checksum footer");
}

TEST(M5PrimeIo, LoadFileMissingThrows)
{
    EXPECT_THROW(M5Prime::loadFile("/nonexistent/model.m5"),
                 FatalError);
}

TEST(M5PrimeIo, SavedModelHasChecksumFooter)
{
    const Dataset ds = piecewiseDataset(500);
    const M5Prime tree = fittedTree(ds);
    const std::string path =
        testing::TempDir() + "/mtperf_model_footer.m5";
    tree.saveFile(path);

    const std::string text = testutil::slurpFile(path);
    EXPECT_EQ(text.rfind("m5prime-model v2\n", 0), 0u);
    const std::size_t footer = text.rfind("\nchecksum ");
    ASSERT_NE(footer, std::string::npos);
    EXPECT_EQ(text.back(), '\n');

    // Tampering with a single body byte must trip the checksum.
    std::string damaged = text;
    const std::size_t target = text.find("trainSize");
    ASSERT_NE(target, std::string::npos);
    damaged[target] = 'T';
    testutil::writeFileBytes(path, damaged);
    try {
        M5Prime::loadFile(path);
        FAIL() << "tampered model loaded without error";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("checksum"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
}

TEST(M5PrimeIo, ModelCorpusDetectsOrLoadsIdentically)
{
    // Small tree to keep the corpus (8 flips per byte) tractable.
    const Dataset ds = piecewiseDataset(200);
    const M5Prime tree = fittedTree(ds);
    const std::string reference = tree.toString();

    const std::string path =
        testing::TempDir() + "/mtperf_model_corpus.m5";
    tree.saveFile(path);
    const std::string pristine = testutil::slurpFile(path);

    const std::string scratch =
        testing::TempDir() + "/mtperf_model_scratch.m5";
    auto outcome = [&](const char *what, std::size_t offset) {
        try {
            const M5Prime loaded = M5Prime::loadFile(scratch);
            // Damage the checksum cannot see (it never happens to the
            // v2 body) must leave the model semantically untouched.
            EXPECT_EQ(loaded.toString(), reference)
                << what << " at byte " << offset
                << " loaded but changed the model";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(scratch),
                      std::string::npos)
                << "error must name the file: " << e.what();
        }
    };
    testutil::forEachBitFlip(
        pristine, scratch,
        [&](std::size_t offset, int) { outcome("flip", offset); },
        /*stride=*/3);
    testutil::forEachTruncation(
        pristine, scratch,
        [&](std::size_t len) { outcome("truncation", len); },
        /*stride=*/3);
}

TEST(M5PrimeIo, V1ModelTextIsRejected)
{
    // Format v1 had no checksum footer, and nothing writes it. Loading
    // it would trust an unverified body, so v1 is refused outright.
    const auto expect_rejected = [](const std::string &text) {
        const std::string what = loadError(text);
        EXPECT_NE(what.find("unsupported format version 'v1'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("<fixture>"), std::string::npos) << what;
    };
    expect_rejected("m5prime-model v1\ntarget y\nattributes 1\na x\n"
                    "trainSize 5\noptions 4 0.05 1 1 15 1 0\n"
                    "node l 5 1.0 0.1 2.0 0\nend\n");

    // A sealed model relabelled v1. Its footer follows 'end', where a
    // v1 parse never looked, so any edit to its body loaded unchecked.
    std::ostringstream os;
    fittedTree(piecewiseDataset(500)).save(os);
    std::string relabelled = os.str();
    const std::string v2 = "m5prime-model v2\n";
    ASSERT_EQ(relabelled.rfind(v2, 0), 0u);
    relabelled.replace(0, v2.size(), "m5prime-model v1\n");
    expect_rejected(relabelled);
}

TEST(M5PrimeIo, NonFiniteCoefficientsRejectedOnLoad)
{
    const std::string what =
        loadError(sealed(kHeader + "node l 5 1.0 0.1 nan 0\nend\n"));
    EXPECT_NE(what.find("leaf"), std::string::npos) << what;
}

} // namespace
} // namespace mtperf
