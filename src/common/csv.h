/**
 * @file
 * Minimal CSV reading and writing, with positions and integrity.
 *
 * Supports the subset of CSV the library produces and consumes:
 * comma-separated fields, optional double-quote quoting with embedded
 * commas/quotes, one header row. This is deliberately not a general
 * RFC-4180 implementation (no embedded newlines in fields).
 *
 * Storage: a CsvTable keeps the header as strings and every data cell
 * in one owned byte string, with the end offset of each cell beside
 * it; cell(r, c) returns a std::string_view into that string. The
 * table holds offsets, not views, so it copies and moves safely, but a
 * view from cell() lives only as long as its table (and only until the
 * next addCell(), which may grow the string).
 *
 * Reading is one pass over the input, which arrives with one sized
 * read: memchr finds each line's end, the footer checksum takes the
 * line, and the line's fields are split and unquoted in place into the
 * front of the same buffer, which then becomes the table's cell
 * string. Writing appends the rows to one string and quotes only the
 * cells that need it.
 *
 * Robustness contract:
 *  - every parse error names the source and 1-based line (and column
 *    where one exists), e.g. "data.csv:17:42: unterminated quote";
 *  - lines starting with '#' are comments and are skipped;
 *  - a trailing "#mtperf-footer rows=N crc32=HHHHHHHH" line (written
 *    by writeCsvFile) lets readers detect truncation and bit flips in
 *    otherwise-well-formed text; files without a footer are accepted
 *    (foreign CSVs) but cannot be integrity-checked;
 *  - salvage mode recovers the valid rows instead of failing, and the
 *    table reports how many rows were dropped.
 */

#ifndef MTPERF_COMMON_CSV_H_
#define MTPERF_COMMON_CSV_H_

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mtperf {

/** How readCsv() treats malformed rows and integrity failures. */
struct CsvReadOptions
{
    /**
     * When true, drop malformed rows (and tolerate a bad or missing
     * integrity footer) instead of throwing; drops are counted on the
     * returned table and logged.
     */
    bool salvage = false;
};

class CsvCodec;

/** An in-memory CSV table: a header plus data rows of equal width. */
struct CsvTable
{
    std::vector<std::string> header;

    /** Where the table came from ("<stream>" or a file path). */
    std::string source = "<csv>";

    /** 1-based source line of each row (empty for built tables). */
    std::vector<std::size_t> rowLines;

    /** True when an integrity footer was present and verified. */
    bool footerVerified = false;

    /** Rows dropped in salvage mode. */
    std::size_t droppedRows = 0;

    /** Number of columns (from the header). */
    std::size_t columns() const { return header.size(); }

    /** Number of complete data rows. */
    std::size_t
    rows() const
    {
        return header.empty() ? 0 : ends_.size() / header.size();
    }

    /** Cell @p c of data row @p r; valid while the table is unchanged. */
    std::string_view
    cell(std::size_t r, std::size_t c) const
    {
        const std::size_t i = r * header.size() + c;
        const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
        return std::string_view(cells_).substr(begin, ends_[i] - begin);
    }

    /**
     * Append one cell to the data rows: cells fill the rows in order,
     * columns() to a row.
     */
    void
    addCell(std::string_view text)
    {
        cells_.append(text);
        ends_.push_back(cells_.size());
    }

    /** Append one data row of columns() cells. */
    void addRow(std::initializer_list<std::string_view> cells);

    /** Make room for @p rows rows of @p bytes cell bytes in all. */
    void reserve(std::size_t rows, std::size_t bytes);

    /** 1-based source line of row @p r (0 when unknown). */
    std::size_t
    rowLine(std::size_t r) const
    {
        return r < rowLines.size() ? rowLines[r] : 0;
    }

    /**
     * Index of the named column.
     * @throw FatalError if the column is absent.
     */
    std::size_t columnIndex(const std::string &name) const;

  private:
    friend class CsvCodec;

    std::string cells_;              //!< every data cell, back to back
    std::vector<std::size_t> ends_;  //!< end offset of each cell in cells_
};

/** Parse a single CSV line into fields, honoring quoting. */
std::vector<std::string> parseCsvLine(const std::string &line);

/** Quote a field if it needs quoting, else return it unchanged. */
std::string csvEscape(std::string_view field);

/**
 * Read a CSV table from a stream. @p source names the stream in
 * error messages.
 * @throw FatalError on ragged rows, an empty file, or an integrity
 * footer that does not match the content (unless salvaging).
 */
CsvTable readCsv(std::istream &in, const std::string &source = "<csv>",
                 const CsvReadOptions &options = {});

/**
 * Read a CSV table from a file path.
 * @throw FatalError if the file cannot be opened.
 */
CsvTable readCsvFile(const std::string &path,
                     const CsvReadOptions &options = {});

/** Write @p table to a stream (no integrity footer). */
void writeCsv(std::ostream &out, const CsvTable &table);

/**
 * Atomically write @p table to a file with an integrity footer: the
 * file appears complete-with-footer or not at all.
 */
void writeCsvFile(const std::string &path, const CsvTable &table);

} // namespace mtperf

#endif // MTPERF_COMMON_CSV_H_
