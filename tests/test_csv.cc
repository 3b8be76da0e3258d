/**
 * @file
 * Tests for CSV parsing and writing.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/logging.h"

namespace mtperf {
namespace {

TEST(ParseCsvLine, PlainFields)
{
    const auto f = parseCsvLine("a,b,c");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[1], "b");
}

TEST(ParseCsvLine, QuotedComma)
{
    const auto f = parseCsvLine("a,\"b,c\",d");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[1], "b,c");
}

TEST(ParseCsvLine, EscapedQuote)
{
    const auto f = parseCsvLine("\"say \"\"hi\"\"\"");
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "say \"hi\"");
}

TEST(ParseCsvLine, StripsCarriageReturn)
{
    const auto f = parseCsvLine("a,b\r");
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[1], "b");
}

TEST(ParseCsvLine, UnterminatedQuoteThrows)
{
    EXPECT_THROW(parseCsvLine("\"open"), FatalError);
}

TEST(CsvEscape, OnlyWhenNeeded)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("q\"q"), "\"q\"\"q\"");
}

TEST(ReadCsv, HeaderAndRows)
{
    std::istringstream in("x,y\n1,2\n3,4\n");
    const auto table = readCsv(in);
    EXPECT_EQ(table.columns(), 2u);
    ASSERT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.cell(1, 0), "3");
}

TEST(ReadCsv, SkipsBlankLines)
{
    std::istringstream in("x\n\n1\n\n2\n");
    const auto table = readCsv(in);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(ReadCsv, WideHeaderOverBlankLinesReadsWithoutHugeAllocations)
{
    // 100,000 columns over a million blank lines: room for a row per
    // line would be 10^11 cell ends; the room must follow the bytes.
    std::string text(100000 - 1, ',');
    text += '\n';
    text.append(1000000, '\n');
    std::istringstream in(text);
    const auto table = readCsv(in);
    EXPECT_EQ(table.columns(), 100000u);
    EXPECT_EQ(table.rows(), 0u);
}

TEST(ReadCsv, RaggedRowThrows)
{
    std::istringstream in("x,y\n1\n");
    EXPECT_THROW(readCsv(in), FatalError);
}

TEST(ReadCsv, UnterminatedQuoteThrowsNamingTheColumn)
{
    std::istringstream in("x,y\n1,2\n3,\"4\n");
    try {
        readCsv(in, "f.csv");
        FAIL() << "expected a FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "f.csv:3:3: unterminated quote in CSV line");
    }
}

TEST(ReadCsv, SalvageDropsAnUnterminatedQuoteRowWithoutAFatalLine)
{
    std::istringstream in("x,y\n1,2\n3,\"4\n5,6\n");
    CsvReadOptions options;
    options.salvage = true;
    testing::internal::CaptureStderr();
    const auto table = readCsv(in, "f.csv", options);
    const std::string log = testing::internal::GetCapturedStderr();

    ASSERT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.cell(1, 0), "5");
    EXPECT_EQ(table.droppedRows, 1u);
    EXPECT_EQ(log.find("fatal"), std::string::npos) << log;
    EXPECT_NE(log.find("f.csv: salvage dropped 1 malformed CSV row\n"),
              std::string::npos)
        << log;
}

TEST(ReadCsv, EmptyInputThrows)
{
    std::istringstream in("");
    EXPECT_THROW(readCsv(in), FatalError);
}

TEST(CsvTable, ColumnIndex)
{
    CsvTable table;
    table.header = {"a", "b"};
    EXPECT_EQ(table.columnIndex("b"), 1u);
    EXPECT_THROW(table.columnIndex("c"), FatalError);
}

TEST(WriteCsv, RoundTrip)
{
    CsvTable table;
    table.header = {"name", "value"};
    table.addRow({"x,1", "2"});
    table.addRow({"plain", "3.5"});

    std::ostringstream out;
    writeCsv(out, table);
    std::istringstream in(out.str());
    const auto back = readCsv(in);

    EXPECT_EQ(back.header, table.header);
    ASSERT_EQ(back.rows(), table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < table.columns(); ++c)
            EXPECT_EQ(back.cell(r, c), table.cell(r, c));
    }
}

TEST(CsvFile, WriteAndReadBack)
{
    const std::string path =
        testing::TempDir() + "/mtperf_csv_test.csv";
    CsvTable table;
    table.header = {"k"};
    table.addRow({"v"});
    writeCsvFile(path, table);
    const auto back = readCsvFile(path);
    EXPECT_EQ(back.cell(0, 0), "v");
}

TEST(CsvFile, MissingFileThrows)
{
    EXPECT_THROW(readCsvFile("/nonexistent/path.csv"), FatalError);
}

} // namespace
} // namespace mtperf
