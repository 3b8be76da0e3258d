/**
 * @file
 * Tests for dataset CSV/ARFF serialization.
 */

#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "data/io.h"

namespace mtperf {
namespace {

Dataset
sampleDataset()
{
    Dataset ds(Schema(std::vector<std::string>{"a", "b"}, "y"));
    ds.addRow(std::vector<double>{1.5, 2.0}, 10.0, "w1/p1");
    ds.addRow(std::vector<double>{-0.25, 3.0}, 20.0, "w2/p2");
    return ds;
}

TEST(DatasetCsv, RoundTripPreservesEverything)
{
    const Dataset ds = sampleDataset();
    std::ostringstream out;
    writeDatasetCsv(out, ds);
    std::istringstream in(out.str());
    const Dataset back = readDatasetCsv(in, "y");

    EXPECT_TRUE(back.schema() == ds.schema());
    ASSERT_EQ(back.size(), ds.size());
    for (std::size_t r = 0; r < ds.size(); ++r) {
        EXPECT_DOUBLE_EQ(back.target(r), ds.target(r));
        EXPECT_EQ(back.tag(r), ds.tag(r));
        for (std::size_t a = 0; a < ds.numAttributes(); ++a)
            EXPECT_DOUBLE_EQ(back.value(r, a), ds.value(r, a));
    }
}

TEST(DatasetCsv, CellsMatchTheStreamFormatting)
{
    // The writer formats cells with std::to_chars at precision 12; the
    // bytes must stay those an ostream at precision 12 (%.12g) gave.
    const double values[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -4.9406564584124654e-320,
        std::numeric_limits<double>::min(),
        1e15,
        1e-15,
        -1e15,
        123456789012.5,
        1234567890123.0,
        1e21,
        0.1 + 0.2,
        -2.0 / 3.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    Dataset ds(Schema(std::vector<std::string>{"a"}, "y"));
    for (double v : values)
        ds.addRow(std::vector<double>{v}, -v, "t");
    std::ostringstream out;
    writeDatasetCsv(out, ds);

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "a,y,tag");
    for (double v : values) {
        std::ostringstream cell, target;
        cell.precision(12);
        cell << v;
        target.precision(12);
        target << -v;
        ASSERT_TRUE(std::getline(lines, line));
        EXPECT_EQ(line, cell.str() + "," + target.str() + ",t");
    }
}

TEST(DatasetCsv, DecimalCellsReadAsFromCharsReadsThem)
{
    // Plain decimals take a shortcut past std::from_chars; the bits
    // must be the ones from_chars gives, at every length and scale.
    Rng rng(17);
    std::vector<std::string> cells = {"0", "-0", "0.0", "-0.000", "007.50",
                                      "9007199254740992",
                                      "9007199254740993",
                                      "0.9007199254740993",
                                      "1234567890123456789",
                                      "12345678901234567890",
                                      "18446744073709551617", // 2^64 + 1
                                      "-1844674407370955161.7",
                                      "000000000000000000001", "1e5", ".5",
                                      "5.", "-", "--1"};
    for (int i = 0; i < 20000; ++i) {
        std::string cell = rng.chance(0.3) ? "-" : "";
        const std::size_t digits = 1 + rng.uniformInt(20);
        const std::size_t point = rng.uniformInt(digits);
        for (std::size_t d = 0; d < digits; ++d) {
            if (d == point && d > 0)
                cell += '.';
            cell += static_cast<char>('0' + rng.uniformInt(10));
        }
        cells.push_back(cell);
    }
    std::string csv = "a,y\n";
    for (const std::string &cell : cells)
        csv += cell + ",1\n";
    DatasetReadOptions salvage;
    salvage.salvage = true;
    std::istringstream in(csv);
    const Dataset ds = readDatasetCsv(in, "y", salvage);

    std::size_t row = 0;
    for (const std::string &cell : cells) {
        double want = 0.0;
        const auto [ptr, ec] = std::from_chars(
            cell.data(), cell.data() + cell.size(), want);
        if (ec != std::errc() || ptr != cell.data() + cell.size())
            continue; // dropped by the salvaging read
        ASSERT_LT(row, ds.size());
        const double got = ds.value(row++, 0);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << cell << ": " << got << " vs " << want;
    }
    EXPECT_EQ(row, ds.size());
}

TEST(DatasetCsv, TargetColumnAnywhere)
{
    std::istringstream in("y,a,b\n1,2,3\n");
    const Dataset ds = readDatasetCsv(in, "y");
    EXPECT_EQ(ds.numAttributes(), 2u);
    EXPECT_DOUBLE_EQ(ds.target(0), 1.0);
    EXPECT_DOUBLE_EQ(ds.value(0, 0), 2.0);
}

TEST(DatasetCsv, MissingTargetThrows)
{
    std::istringstream in("a,b\n1,2\n");
    EXPECT_THROW(readDatasetCsv(in, "y"), FatalError);
}

TEST(DatasetCsv, NonNumericCellThrows)
{
    std::istringstream in("a,y\nfoo,1\n");
    EXPECT_THROW(readDatasetCsv(in, "y"), FatalError);
}

TEST(DatasetCsv, NonNumericCellErrorNamesTheCell)
{
    std::istringstream in("a,b,y\n1,2,3\n4,x5,6\n");
    try {
        readDatasetCsv(in, "y");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "cannot parse 'x5' as a number (<csv>:3:field 2 (b))"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DatasetCsv, PaddedCellsParse)
{
    std::istringstream in("a,y\n 1.5 ,\t2\n");
    const Dataset ds = readDatasetCsv(in, "y");
    EXPECT_DOUBLE_EQ(ds.value(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(ds.target(0), 2.0);
}

TEST(DatasetCsv, CoreCellsNoUint32HoldsAreRejected)
{
    // A co-run core cell is cast to uint32_t; one out of its range
    // must fail with the cell's position instead of reaching the cast.
    for (const char *core : {"inf", "1e20", "4294967296", "-1", "2.5"}) {
        std::istringstream in(std::string("a,y,core,corun_set\n1,2,") +
                              core + ",mcf_like+gcc_like\n");
        try {
            readDatasetCsv(in, "y");
            ADD_FAILURE() << "core '" << core << "' was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "<csv>:2:field 3 (core): core must be a "
                          "nonnegative integer, got '" +
                          std::string(core) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    std::istringstream in("a,y,core,corun_set\n1,2,4294967295,s\n");
    const Dataset ds = readDatasetCsv(in, "y");
    ASSERT_TRUE(ds.hasCorun());
    EXPECT_EQ(ds.corun(0).core, 4294967295u);
}

TEST(DatasetCsv, NoTagColumnDefaultsToEmpty)
{
    std::istringstream in("a,y\n1,2\n");
    const Dataset ds = readDatasetCsv(in, "y");
    EXPECT_EQ(ds.tag(0), "");
}

TEST(DatasetCsv, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/mtperf_ds.csv";
    writeDatasetCsvFile(path, sampleDataset());
    const Dataset back = readDatasetCsvFile(path, "y");
    EXPECT_EQ(back.size(), 2u);
}

TEST(DatasetArff, RoundTripPreservesEverything)
{
    const Dataset ds = sampleDataset();
    std::ostringstream out;
    writeDatasetArff(out, ds, "sections");
    std::istringstream in(out.str());
    const Dataset back = readDatasetArff(in);

    EXPECT_TRUE(back.schema() == ds.schema());
    ASSERT_EQ(back.size(), ds.size());
    for (std::size_t r = 0; r < ds.size(); ++r) {
        EXPECT_DOUBLE_EQ(back.target(r), ds.target(r));
        EXPECT_EQ(back.tag(r), ds.tag(r));
        for (std::size_t a = 0; a < ds.numAttributes(); ++a)
            EXPECT_DOUBLE_EQ(back.value(r, a), ds.value(r, a));
    }
}

TEST(DatasetArff, AcceptsCommentsAndCase)
{
    std::istringstream in(
        "% comment\n"
        "@RELATION test\n"
        "@ATTRIBUTE x NUMERIC\n"
        "@ATTRIBUTE y REAL\n"
        "@DATA\n"
        "1,2\n"
        "3,4\n");
    const Dataset ds = readDatasetArff(in);
    EXPECT_EQ(ds.numAttributes(), 1u);
    EXPECT_EQ(ds.schema().targetName(), "y");
    EXPECT_EQ(ds.size(), 2u);
    EXPECT_DOUBLE_EQ(ds.target(1), 4.0);
}

TEST(DatasetArff, RejectsNominalAttributes)
{
    std::istringstream in(
        "@relation t\n@attribute c {a,b}\n@data\na\n");
    EXPECT_THROW(readDatasetArff(in), FatalError);
}

TEST(DatasetArff, RejectsMissingData)
{
    std::istringstream in("@relation t\n@attribute x numeric\n");
    EXPECT_THROW(readDatasetArff(in), FatalError);
}

TEST(DatasetArff, RejectsTooFewAttributes)
{
    std::istringstream in("@relation t\n@attribute x numeric\n@data\n1\n");
    EXPECT_THROW(readDatasetArff(in), FatalError);
}

TEST(DatasetArff, RaggedRowThrows)
{
    std::istringstream in(
        "@relation t\n@attribute x numeric\n@attribute y numeric\n"
        "@data\n1\n");
    EXPECT_THROW(readDatasetArff(in), FatalError);
}

} // namespace
} // namespace mtperf
