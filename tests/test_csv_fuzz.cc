/**
 * @file
 * Differential fuzz test of the CSV reader and the dataset builder.
 *
 * The reference below is the line-at-a-time reader that the one-pass
 * CsvTable reader replaced: std::getline per line, a parseCsvLine that
 * builds one std::string per field, and a table of rows of strings. It
 * is kept verbatim apart from its names, plus the one fix both sides
 * now share (a co-run core cell must fit a uint32_t).
 *
 * Seeded structural mutations of a written counter CSV and a written
 * co-run CSV go through both readers in strict, strict-drop and salvage
 * mode. The two must agree on everything a caller can observe: the
 * header, every cell, rowLines, footerVerified, droppedRows, the
 * Dataset's bytes and read report, the FatalError text, and every log
 * line (less the source location a fatal error's log line ends with).
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "data/io.h"

namespace mtperf {
namespace {

// ---------------------------------------------------------------------
// The reference reader.

namespace reference {

struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    std::string source = "<csv>";
    std::vector<std::size_t> rowLines;
    bool footerVerified = false;
    std::size_t droppedRows = 0;

    std::size_t columns() const { return header.size(); }

    std::size_t
    rowLine(std::size_t r) const
    {
        return r < rowLines.size() ? rowLines[r] : 0;
    }

    std::size_t
    columnIndex(const std::string &name) const
    {
        for (std::size_t i = 0; i < header.size(); ++i) {
            if (header[i] == name)
                return i;
        }
        mtperf_fatal(source, ": CSV has no column named '", name, "'");
    }
};

constexpr const char *kFooterPrefix = "#mtperf-footer ";

std::string
at(const std::string &source, std::size_t line_no, std::size_t column = 0)
{
    std::string where = source + ":" + std::to_string(line_no);
    if (column != 0)
        where += ":" + std::to_string(column);
    return where + ": ";
}

std::string
checkFooter(const std::string &line, std::size_t rows_seen,
            std::uint32_t content_crc)
{
    std::istringstream fields(line.substr(std::string(kFooterPrefix).size()));
    std::string rows_word, crc_word;
    if (!(fields >> rows_word >> crc_word) ||
        !startsWith(rows_word, "rows=") || !startsWith(crc_word, "crc32=")) {
        return "malformed integrity footer";
    }
    std::uint64_t rows = 0;
    try {
        rows = parseSize(rows_word.substr(5), "footer row count");
    } catch (const FatalError &) {
        return "malformed integrity footer row count";
    }
    std::uint32_t crc = 0;
    if (!parseCrc32Hex(crc_word.substr(6), crc))
        return "malformed integrity footer checksum";
    if (rows != rows_seen) {
        return "integrity footer expects " + std::to_string(rows) +
               " rows but the file has " + std::to_string(rows_seen) +
               " (truncated or corrupt)";
    }
    if (crc != content_crc) {
        return "integrity checksum mismatch (expected " + crc32Hex(crc) +
               ", content hashes to " + crc32Hex(content_crc) +
               "; the file is corrupt)";
    }
    return {};
}

std::vector<std::string>
parseCsvLine(const std::string &line, const std::string &source,
             std::size_t line_no)
{
    std::vector<std::string> fields;
    std::string field;
    bool in_quotes = false;
    std::size_t quote_column = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"') {
            in_quotes = true;
            quote_column = i + 1;
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else if (c != '\r') {
            field.push_back(c);
        }
    }
    if (in_quotes) {
        mtperf_fatal(at(source, line_no, quote_column),
                     "unterminated quote in CSV line");
    }
    fields.push_back(std::move(field));
    return fields;
}

CsvTable
readCsv(std::istream &in, const std::string &source,
        const CsvReadOptions &options)
{
    CsvTable table;
    table.source = source;
    std::string line;
    bool have_header = false;
    bool footer_seen = false;
    std::size_t line_no = 0;
    Crc32 content_crc;
    while (std::getline(in, line)) {
        ++line_no;
        if (startsWith(line, kFooterPrefix)) {
            footer_seen = true;
            const std::string error =
                checkFooter(line, table.rows.size(), content_crc.value());
            if (error.empty()) {
                table.footerVerified = true;
            } else if (options.salvage) {
                warn(at(source, line_no), error, " (salvaging)");
            } else {
                mtperf_fatal(at(source, line_no), error);
            }
            continue;
        }
        content_crc.update(line);
        content_crc.update("\n", 1);
        if (line.empty() || line == "\r" || line[0] == '#')
            continue;
        std::vector<std::string> fields;
        try {
            fields = parseCsvLine(line, source, line_no);
        } catch (const FatalError &) {
            if (!options.salvage)
                throw;
            ++table.droppedRows;
            continue;
        }
        if (!have_header) {
            table.header = std::move(fields);
            have_header = true;
        } else {
            if (fields.size() != table.header.size()) {
                if (options.salvage) {
                    ++table.droppedRows;
                    continue;
                }
                mtperf_fatal(at(source, line_no),
                             "ragged CSV row: expected ",
                             table.header.size(), " fields, got ",
                             fields.size());
            }
            table.rows.push_back(std::move(fields));
            table.rowLines.push_back(line_no);
        }
    }
    if (!have_header)
        mtperf_fatal(source, ": empty CSV input");
    if (!footer_seen) {
        warn(source, ": no integrity footer; truncation would be "
             "undetectable");
    }
    if (table.droppedRows > 0) {
        warn(source, ": salvage dropped ", table.droppedRows,
             " malformed CSV row", table.droppedRows == 1 ? "" : "s");
    }
    return table;
}

std::string
cellContext(const CsvTable &table, std::size_t row, std::size_t col)
{
    std::ostringstream os;
    os << table.source << ":" << table.rowLine(row) << ":field "
       << (col + 1);
    if (col < table.header.size())
        os << " (" << table.header[col] << ")";
    return os.str();
}

double
parseCell(const CsvTable &table, std::size_t row, std::size_t col)
{
    const std::string &text = table.rows[row][col];
    const char *first = text.data();
    const char *last = first + text.size();
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && ptr == last)
        return value;
    return parseDouble(text, cellContext(table, row, col));
}

Dataset
datasetFromCsvTable(const CsvTable &table, const std::string &target_name,
                    const DatasetReadOptions &options,
                    DatasetReadReport *report)
{
    const bool drop_bad_rows = options.salvage;
    const bool drop_non_finite =
        options.salvage || options.nonFinite == NonFinitePolicy::Drop;
    const std::size_t target_col = table.columnIndex(target_name);

    std::size_t probe_core = Schema::npos;
    std::size_t probe_set = Schema::npos;
    for (std::size_t c = 0; c < table.columns(); ++c) {
        if (c == target_col)
            continue;
        if (table.header[c] == "core")
            probe_core = c;
        else if (table.header[c] == "corun_set")
            probe_set = c;
    }
    const bool has_corun =
        probe_core != Schema::npos && probe_set != Schema::npos;
    const std::size_t core_col = has_corun ? probe_core : Schema::npos;
    const std::size_t set_col = has_corun ? probe_set : Schema::npos;

    std::size_t tag_col = Schema::npos;
    std::vector<std::string> attr_names;
    std::vector<std::size_t> attr_cols;
    for (std::size_t c = 0; c < table.columns(); ++c) {
        if (c == target_col || c == core_col || c == set_col)
            continue;
        if (table.header[c] == "tag") {
            tag_col = c;
            continue;
        }
        attr_names.push_back(table.header[c]);
        attr_cols.push_back(c);
    }

    Dataset ds(Schema(std::move(attr_names), target_name));
    std::vector<double> attrs(attr_cols.size());
    std::size_t dropped = table.droppedRows;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        const auto &row = table.rows[r];
        bool row_ok = true;
        double target = 0.0;
        RowCorun corun;
        try {
            for (std::size_t i = 0; i < attr_cols.size(); ++i)
                attrs[i] = parseCell(table, r, attr_cols[i]);
            target = parseCell(table, r, target_col);
            if (has_corun) {
                const double core_value = parseCell(table, r, core_col);
                // The shared fix: the parent let inf, 1e20 and 2^32
                // reach the cast below.
                if (!(core_value >= 0 && core_value <= 4294967295.0) ||
                    core_value != std::floor(core_value)) {
                    mtperf_fatal(cellContext(table, r, core_col),
                                 ": core must be a nonnegative "
                                 "integer, got '",
                                 row[core_col], "'");
                }
                corun.core = static_cast<std::uint32_t>(core_value);
                corun.corunSet = row[set_col];
            }
        } catch (const FatalError &) {
            if (!drop_bad_rows)
                throw;
            row_ok = false;
        }
        if (row_ok) {
            std::size_t bad_col = Schema::npos;
            for (std::size_t i = 0; i < attr_cols.size(); ++i) {
                if (!std::isfinite(attrs[i])) {
                    bad_col = attr_cols[i];
                    break;
                }
            }
            if (bad_col == Schema::npos && !std::isfinite(target))
                bad_col = target_col;
            if (bad_col != Schema::npos) {
                if (!drop_non_finite) {
                    mtperf_fatal(cellContext(table, r, bad_col),
                                 ": non-finite value '", row[bad_col],
                                 "' (use --salvage to drop such rows)");
                }
                row_ok = false;
            }
        }
        if (!row_ok) {
            ++dropped;
            continue;
        }
        std::string tag =
            tag_col == Schema::npos ? std::string() : row[tag_col];
        if (has_corun)
            ds.addRowCorun(attrs, target, std::move(tag),
                           std::move(corun));
        else
            ds.addRow(attrs, target, std::move(tag));
    }
    if (dropped > table.droppedRows) {
        warn(table.source, ": dropped ", dropped - table.droppedRows,
             " row", dropped - table.droppedRows == 1 ? "" : "s",
             " with unparsable or non-finite values");
    }
    if (report != nullptr) {
        report->droppedRows = dropped;
        report->footerVerified = table.footerVerified;
    }
    return ds;
}

} // namespace reference

// ---------------------------------------------------------------------
// Transcripts: everything a caller can observe, as one string.

/** Routes std::cerr (the log sink) into a string while alive. */
class LogCapture
{
  public:
    LogCapture() : previous_(std::cerr.rdbuf(captured_.rdbuf())) {}
    ~LogCapture() { std::cerr.rdbuf(previous_); }

    LogCapture(const LogCapture &) = delete;
    LogCapture &operator=(const LogCapture &) = delete;

    /**
     * The captured lines. A fatal error's log line ends with the
     * source location that raised it, which differs between the two
     * readers by construction; it is cut off.
     */
    std::string
    lines() const
    {
        std::istringstream in(captured_.str());
        std::string line, out;
        while (std::getline(in, line)) {
            if (line.find("] fatal: ") != std::string::npos) {
                const auto location = line.rfind(" (");
                if (location != std::string::npos && line.back() == ')')
                    line.erase(location);
            }
            out += "log: " + line + "\n";
        }
        return out;
    }

  private:
    std::ostringstream captured_;
    std::streambuf *previous_;
};

/** A field's bytes, bracketed so that empty and padded cells show. */
void
describeField(std::string &out, std::string_view field)
{
    out += '[';
    out += field;
    out += ']';
}

/** The exact bits of @p v, in hex. */
void
describeDouble(std::string &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, " %016llx",
                  static_cast<unsigned long long>(bits));
    out += buffer;
}

void
describeDataset(std::string &out, const Dataset &ds,
                const DatasetReadReport &report)
{
    out += "dataset attributes:";
    for (std::size_t a = 0; a < ds.numAttributes(); ++a)
        describeField(out, ds.schema().attributeName(a));
    out += " target:" + ds.schema().targetName();
    out += " rows:" + std::to_string(ds.size());
    out += " corun:" + std::to_string(ds.hasCorun()) + "\n";
    for (std::size_t r = 0; r < ds.size(); ++r) {
        for (double v : ds.row(r))
            describeDouble(out, v);
        describeDouble(out, ds.target(r));
        out += " tag";
        describeField(out, ds.tag(r));
        if (ds.hasCorun()) {
            out += " core " + std::to_string(ds.corun(r).core) + " set";
            describeField(out, ds.corun(r).corunSet);
        }
        out += "\n";
    }
    out += "report dropped " + std::to_string(report.droppedRows) +
           " verified " + std::to_string(report.footerVerified) + "\n";
}

/** The outcome of reading @p text through one reader. */
template <typename ReadCsv, typename CellOf, typename RowsOf,
          typename BuildDataset>
std::string
transcript(const std::string &text, const DatasetReadOptions &options,
           ReadCsv read_csv, CellOf cell_of, RowsOf rows_of,
           BuildDataset build_dataset)
{
    std::string out;
    LogCapture log;
    CsvReadOptions csv_options;
    csv_options.salvage = options.salvage;
    try {
        std::istringstream in(text);
        const auto table = read_csv(in, "fuzz.csv", csv_options);
        out += "header:";
        for (const std::string &name : table.header)
            describeField(out, name);
        out += "\nrows " + std::to_string(rows_of(table)) + "\n";
        for (std::size_t r = 0; r < rows_of(table); ++r) {
            out += "line " + std::to_string(table.rowLine(r)) + ":";
            for (std::size_t c = 0; c < table.columns(); ++c)
                describeField(out, cell_of(table, r, c));
            out += "\n";
        }
        out += "rowLines " + std::to_string(table.rowLines.size()) +
               " footerVerified " + std::to_string(table.footerVerified) +
               " droppedRows " + std::to_string(table.droppedRows) + "\n";
        DatasetReadReport report;
        report.droppedRows = 12345; // must be overwritten
        const Dataset ds = build_dataset(table, "CPI", options, &report);
        describeDataset(out, ds, report);
    } catch (const FatalError &e) {
        out += std::string("FatalError: ") + e.what() + "\n";
    }
    return out + log.lines();
}

std::string
referenceTranscript(const std::string &text,
                    const DatasetReadOptions &options)
{
    return transcript(
        text, options, reference::readCsv,
        [](const reference::CsvTable &t, std::size_t r, std::size_t c) {
            return std::string_view(t.rows[r][c]);
        },
        [](const reference::CsvTable &t) { return t.rows.size(); },
        reference::datasetFromCsvTable);
}

std::string
currentTranscript(const std::string &text, const DatasetReadOptions &options)
{
    return transcript(
        text, options,
        [](std::istream &in, const std::string &source,
           const CsvReadOptions &csv_options) {
            return readCsv(in, source, csv_options);
        },
        [](const CsvTable &t, std::size_t r, std::size_t c) {
            return t.cell(r, c);
        },
        [](const CsvTable &t) { return t.rows(); },
        [](const CsvTable &t, const std::string &target,
           const DatasetReadOptions &o, DatasetReadReport *report) {
            return datasetFromCsvTable(t, target, o, report);
        });
}

// ---------------------------------------------------------------------
// Seed inputs and mutations.

/** @p ds as writeDatasetCsvFile writes it, footer included. */
std::string
writtenCsv(const Dataset &ds)
{
    // One file per test: ctest runs the tests as parallel processes.
    const std::string path =
        testing::TempDir() + "/mtperf_csv_fuzz_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";
    writeDatasetCsvFile(path, ds);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A small counter CSV, with a tag that needs quoting. */
std::string
counterCsv()
{
    Dataset ds(Schema(std::vector<std::string>{"L2M", "DTLB", "BrMisp",
                                               "InstLd"},
                      "CPI"));
    Rng rng(20070425);
    for (std::size_t r = 0; r < 14; ++r) {
        const std::vector<double> attrs = {
            rng.uniform() * 0.05, rng.uniform() * 1e-4,
            rng.uniform(), std::floor(rng.uniform() * 1e6)};
        std::string tag = "mcf_like/section_" + std::to_string(r);
        if (r == 5)
            tag = "odd,tag \"quoted\"";
        ds.addRow(attrs, 0.5 + rng.uniform() * 4.0, tag);
    }
    return writtenCsv(ds);
}

/** A small two-core co-run CSV, with core and corun_set columns. */
std::string
corunCsv()
{
    Dataset ds(Schema(std::vector<std::string>{"L2M", "InstLd"}, "CPI"));
    Rng rng(2007);
    for (std::size_t r = 0; r < 10; ++r) {
        RowCorun corun;
        corun.core = static_cast<std::uint32_t>(r % 2);
        corun.corunSet = "mcf_like+gcc_like";
        ds.addRowCorun(std::vector<double>{rng.uniform(), rng.uniform()},
                       1.0 + rng.uniform(),
                       "section_" + std::to_string(r / 2), corun);
    }
    return writtenCsv(ds);
}

/** Byte offsets of the starts of each line of @p text. */
std::vector<std::size_t>
lineStarts(const std::string &text)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (i == 0 || text[i - 1] == '\n')
            starts.push_back(i);
    }
    return starts;
}

/** The [begin, end) range of line @p index, including its '\n'. */
std::pair<std::size_t, std::size_t>
lineRange(const std::string &text, const std::vector<std::size_t> &starts,
          std::size_t index)
{
    const std::size_t begin = starts[index];
    const std::size_t end =
        index + 1 < starts.size() ? starts[index + 1] : text.size();
    return {begin, end};
}

std::string
withoutFooters(const std::string &text)
{
    std::string out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!startsWith(line, "#mtperf-footer "))
            out += line + "\n";
    }
    return out;
}

/**
 * @p text without its footers, plus the footer the writer would give
 * the rows a strict read accepts (rows=0 when there are none), so
 * strict reads get past the integrity check to the cells.
 */
std::string
resealed(const std::string &text)
{
    const std::string content = withoutFooters(text);
    std::size_t rows = 0;
    {
        LogCapture quiet;
        try {
            std::istringstream in(content);
            rows = reference::readCsv(in, "reseal", {}).rows.size();
        } catch (const FatalError &) {
        }
    }
    return content + "#mtperf-footer rows=" + std::to_string(rows) +
           " crc32=" + crc32Hex(crc32(content)) + "\n";
}

const char *const kBoundaryCells[] = {
    "1e308",  "1e400",      "-0",         "nan",    "inf",   "-inf",
    "0x1p3",  "",           " 1.5 ",      "\t2",    "1e-400", "+1",
    "NaN",    "infinity",   "4294967296", "4294967295", "1e20", "-1",
    "2.5",    "0",          "1",          "\"3\"",  "\"\"",   "x5",
};

/** Apply one seeded structural mutation to @p text. */
void
mutate(std::string &text, const std::string &other, Rng &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(n));
    };
    const std::vector<std::size_t> starts = lineStarts(text);
    switch (pick(14)) {
    case 0: { // drop a line
        if (starts.empty())
            return;
        const auto [begin, end] = lineRange(text, starts, pick(starts.size()));
        text.erase(begin, end - begin);
        return;
    }
    case 1: { // duplicate a line somewhere
        if (starts.empty())
            return;
        const auto [begin, end] = lineRange(text, starts, pick(starts.size()));
        const std::string line = text.substr(begin, end - begin);
        text.insert(starts[pick(starts.size())], line);
        return;
    }
    case 2: { // splice a byte range of either input in anywhere
        const std::string &source = rng.chance(0.5) ? text : other;
        if (source.empty())
            return;
        const std::size_t begin = pick(source.size());
        const std::size_t length = 1 + pick(std::min<std::size_t>(
                                           64, source.size() - begin));
        const std::string piece = source.substr(begin, length);
        text.insert(pick(text.size() + 1), piece);
        return;
    }
    case 3: { // insert a structural character
        static const char kStructural[] = {',', '"', '\r', '\n', '#'};
        text.insert(pick(text.size() + 1), 1, kStructural[pick(5)]);
        return;
    }
    case 4: { // delete a structural character
        std::vector<std::size_t> positions;
        for (std::size_t i = 0; i < text.size(); ++i) {
            const char c = text[i];
            if (c == ',' || c == '"' || c == '\r' || c == '\n' || c == '#')
                positions.push_back(i);
        }
        if (!positions.empty())
            text.erase(positions[pick(positions.size())], 1);
        return;
    }
    case 5:
    case 6: { // replace one comma-separated cell with a boundary value
        if (starts.empty())
            return;
        const auto [begin, end] = lineRange(text, starts, pick(starts.size()));
        std::vector<std::size_t> commas = {begin};
        for (std::size_t i = begin; i < end; ++i) {
            if (text[i] == ',')
                commas.push_back(i + 1);
        }
        const std::size_t cell = pick(commas.size());
        const std::size_t from = commas[cell];
        std::size_t to = cell + 1 < commas.size() ? commas[cell + 1] - 1
                                                   : end;
        if (to > from && text[to - 1] == '\n')
            --to;
        text.replace(from, to - from,
                     kBoundaryCells[pick(std::size(kBoundaryCells))]);
        return;
    }
    case 7: { // edit the footer's row count
        const std::size_t at = text.rfind("rows=");
        if (at == std::string::npos)
            return;
        const std::size_t digits = at + 5;
        std::size_t stop = digits;
        while (stop < text.size() && text[stop] != ' ' && text[stop] != '\n')
            ++stop;
        static const char *const kCounts[] = {
            "0", "1", "13", "14", "15", "9", "10", "11", "",
            "x", "-1", "99999999999999999999", " 14"};
        text.replace(digits, stop - digits, kCounts[pick(std::size(kCounts))]);
        return;
    }
    case 8: { // edit the footer's checksum
        const std::size_t at = text.rfind("crc32=");
        if (at == std::string::npos || at + 6 >= text.size())
            return;
        const std::size_t digit = at + 6 + pick(8);
        switch (pick(4)) {
        case 0:
            if (digit < text.size())
                text[digit] = text[digit] == '0' ? '1' : '0';
            return;
        case 1:
            text.replace(at + 6, 2, "zz");
            return;
        case 2:
            text.erase(at + 6, 1);
            return;
        default:
            text.insert(at + 6, "0");
            return;
        }
    }
    case 9: { // a second footer, at the end or in the middle
        const std::size_t at = text.rfind("#mtperf-footer ");
        if (at == std::string::npos || starts.empty())
            return;
        std::size_t end = text.find('\n', at);
        end = end == std::string::npos ? text.size() : end + 1;
        std::string footer = text.substr(at, end - at);
        if (footer.back() != '\n')
            footer.push_back('\n');
        const std::size_t where =
            rng.chance(0.5) ? text.size() : starts[pick(starts.size())];
        text.insert(where, footer);
        return;
    }
    case 10: // a last line without '\n'
        if (!text.empty() && text.back() == '\n')
            text.pop_back();
        return;
    case 11: { // a whole odd line
        static const char *const kLines[] = {
            "\n", "\r\n", "#\n", "# comment, \"quoted\"\n", ",\n",
            "\"\n", "\"\"\n", " \n", "\r\r\n", "#mtperf-footer\n",
            "#mtperf-footer \n", "#mtperf-footer rows=0 crc32=00000000\n"};
        const std::size_t where =
            starts.empty() ? 0 : starts[pick(starts.size())];
        text.insert(where, kLines[pick(std::size(kLines))]);
        return;
    }
    case 12: { // CRLF line endings, from some line on
        const std::size_t from =
            starts.empty() ? 0 : starts[pick(starts.size())];
        std::string crlf = text.substr(0, from);
        for (std::size_t i = from; i < text.size(); ++i) {
            if (text[i] == '\n')
                crlf += '\r';
            crlf += text[i];
        }
        text = crlf;
        return;
    }
    default: // no footer at all
        text = withoutFooters(text);
        return;
    }
}

TEST(CsvFuzz, OnePassReaderMatchesTheLineReader)
{
    const std::string seeds[] = {counterCsv(), corunCsv()};
    DatasetReadOptions strict;
    DatasetReadOptions strict_drop;
    strict_drop.nonFinite = NonFinitePolicy::Drop;
    DatasetReadOptions salvage;
    salvage.salvage = true;
    const DatasetReadOptions *modes[] = {&strict, &strict_drop, &salvage};

    const LogLevel level = logLevel();
    const LogFormat format = logFormat();
    setLogLevel(LogLevel::Info);
    setLogFormat(LogFormat::Text);

    Rng rng(0x5eed2007);
    constexpr int kCasesPerSeed = 1500;
    std::size_t failures = 0;
    std::size_t errors = 0;
    std::size_t datasets = 0;
    for (std::size_t s = 0; s < std::size(seeds); ++s) {
        for (int i = 0; i < kCasesPerSeed && failures < 5; ++i) {
            std::string text = seeds[s];
            const std::size_t mutations = 1 + rng.uniformInt(3);
            for (std::size_t m = 0; m < mutations; ++m)
                mutate(text, seeds[1 - s], rng);
            if (rng.chance(0.35))
                text = resealed(text);
            for (const DatasetReadOptions *mode : modes) {
                const std::string want = referenceTranscript(text, *mode);
                const std::string got = currentTranscript(text, *mode);
                if (want.find("FatalError") != std::string::npos)
                    ++errors;
                else
                    ++datasets;
                if (want != got) {
                    ++failures;
                    ADD_FAILURE() << "seed " << s << " case " << i
                                  << " salvage " << mode->salvage
                                  << "\ninput:\n" << text
                                  << "\nreference:\n" << want
                                  << "\none-pass:\n" << got;
                }
            }
        }
    }
    setLogLevel(level);
    setLogFormat(format);
    RecordProperty("errors", static_cast<int>(errors));
    RecordProperty("datasets", static_cast<int>(datasets));
    // Both outcomes must be well represented, or the comparison shows
    // little: a fuzzer whose every input fails the footer check
    // exercises none of the cell parsing.
    EXPECT_GT(errors, 1000u);
    EXPECT_GT(datasets, 1000u);
}

TEST(CsvFuzz, SeedsReadCleanly)
{
    for (const std::string &text : {counterCsv(), corunCsv()}) {
        std::istringstream in(text);
        const CsvTable table = readCsv(in, "seed.csv");
        EXPECT_TRUE(table.footerVerified);
        const Dataset ds = datasetFromCsvTable(table, "CPI");
        EXPECT_EQ(ds.size(), table.rows());
    }
}

} // namespace
} // namespace mtperf
