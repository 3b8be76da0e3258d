#include "common/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace mtperf {

namespace {

constexpr std::string_view kFooterPrefix = "#mtperf-footer ";

/** "source:line:" or "source:line:column:" error location prefix. */
std::string
at(const std::string &source, std::size_t line_no, std::size_t column = 0)
{
    std::string where = source + ":" + std::to_string(line_no);
    if (column != 0)
        where += ":" + std::to_string(column);
    return where + ": ";
}

/**
 * Parse and check a "#mtperf-footer rows=N crc32=HHHHHHHH" line
 * against the observed content. @return an error message, empty on
 * success.
 */
std::string
checkFooter(std::string_view line, std::size_t rows_seen,
            std::uint32_t content_crc)
{
    std::istringstream fields(std::string(line.substr(kFooterPrefix.size())));
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

/**
 * Split the line buf[begin, end) into fields, honoring quoting. Each
 * field is unquoted in place at the write cursor @p out, which never
 * passes the byte being read, and its end offset is appended to
 * @p ends. Outside quotes a '\r' is dropped; inside them "" is a
 * quote.
 * @return 0, or the 1-based column of a quote the line leaves open;
 * the line's fields are then incomplete, and the caller rolls back
 * @p out and @p ends.
 */
std::size_t
splitLine(char *buf, std::size_t begin, std::size_t end, std::size_t &out,
          std::vector<std::size_t> &ends)
{
    const std::size_t size = end - begin;
    if (std::memchr(buf + begin, '"', size) == nullptr &&
        std::memchr(buf + begin, '\r', size) == nullptr) {
        // The common case, in under two thirds of the time of the loop
        // below: each field is the bytes between commas. (A local
        // cursor, since a char store may alias @p out.)
        std::size_t cursor = out;
        for (std::size_t i = begin; i < end; ++i) {
            const char c = buf[i];
            if (c == ',')
                ends.push_back(cursor);
            else
                buf[cursor++] = c;
        }
        ends.push_back(cursor);
        out = cursor;
        return 0;
    }
    bool in_quotes = false;
    std::size_t quote_column = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const char c = buf[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < end && buf[i + 1] == '"') {
                    buf[out++] = '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                buf[out++] = c;
            }
        } else if (c == '"') {
            in_quotes = true;
            quote_column = i - begin + 1;
        } else if (c == ',') {
            ends.push_back(out);
        } else if (c != '\r') {
            buf[out++] = c;
        }
    }
    if (in_quotes)
        return quote_column;
    ends.push_back(out);
    return 0;
}

/** Lines in @p n bytes at @p text, counting a last one without '\n'. */
std::size_t
lineCount(const char *text, std::size_t n)
{
    std::size_t lines = 0;
    for (const char *const end = text + n; text != end; ++lines) {
        const void *newline = std::memchr(text, '\n', end - text);
        text = newline == nullptr ? end
                                  : static_cast<const char *>(newline) + 1;
    }
    return lines;
}

/** Copies of the fields that start at @p begin and end at @p ends. */
std::vector<std::string>
fieldStrings(const char *buf, std::size_t begin, const std::size_t *ends,
             std::size_t count)
{
    std::vector<std::string> fields;
    fields.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        fields.emplace_back(buf + begin, ends[i] - begin);
        begin = ends[i];
    }
    return fields;
}

/**
 * Every byte left in @p in. in_avail() gives the bytes left of a
 * string stream or a regular file (0 or -1 where unknown), so those
 * arrive in one sized read; anything further follows in chunks.
 */
std::string
readAll(std::istream &in)
{
    const std::streamsize avail = in.good() ? in.rdbuf()->in_avail() : 0;
    std::size_t chunk = avail > 0 ? static_cast<std::size_t>(avail) + 1
                                  : std::size_t{1} << 16;
    std::string text;
    std::size_t size = 0;
    while (in) {
        text.resize(size + chunk);
        in.read(text.data() + size, static_cast<std::streamsize>(chunk));
        size += static_cast<std::size_t>(in.gcount());
        chunk = std::max(chunk, size);
    }
    text.resize(size);
    return text;
}

/**
 * True when @p field must be quoted to read back as itself. Three
 * memchr scans: fast enough to run once over a whole table's cells.
 */
bool
needsQuoting(std::string_view field)
{
    return field.find(',') != std::string_view::npos ||
           field.find('"') != std::string_view::npos ||
           field.find('\n') != std::string_view::npos;
}

/** Append @p field, quoted only when it needs it. */
void
appendField(std::string &out, std::string_view field)
{
    if (needsQuoting(field))
        out += csvEscape(field);
    else
        out += field;
}

} // namespace

/** The reader and writer: the code that sees a table's cell storage. */
class CsvCodec
{
  public:
    /** Parse @p text, unquoting its cells in place. */
    static CsvTable read(std::string text, const std::string &source,
                         const CsvReadOptions &options);

    /** The table as CSV text, header first, without a footer. */
    static std::string format(const CsvTable &table);
};

CsvTable
CsvCodec::read(std::string text, const std::string &source,
               const CsvReadOptions &options)
{
    CsvTable table;
    table.source = source;
    std::vector<std::size_t> &ends = table.ends_;
    char *buf = text.data();
    const std::size_t size = text.size();
    std::size_t out = 0; // cells are packed from the front of buf
    bool have_header = false;
    bool footer_seen = false;
    std::size_t line_no = 0;
    Crc32 content_crc;
    for (std::size_t pos = 0; pos < size;) {
        const void *newline = std::memchr(buf + pos, '\n', size - pos);
        const std::size_t begin = pos;
        const std::size_t end =
            newline == nullptr ? size
                               : static_cast<const char *>(newline) - buf;
        const std::string_view line(buf + begin, end - begin);
        pos = newline == nullptr ? size : end + 1;
        ++line_no;
        if (startsWith(line, kFooterPrefix)) {
            footer_seen = true;
            const std::string error = checkFooter(
                line, table.rowLines.size(), content_crc.value());
            if (error.empty()) {
                table.footerVerified = true;
            } else if (options.salvage) {
                warn(at(source, line_no), error, " (salvaging)");
            } else {
                mtperf_fatal(at(source, line_no), error);
            }
            continue;
        }
        // The footer checksum covers every content line, including
        // comments and blanks, exactly as written ('\n' endings; a
        // last line without one has no footer after it to check). It
        // reads the line before the line's cells overwrite it.
        content_crc.update(buf + begin, pos - begin);
        if (line.empty() || line == "\r" || line[0] == '#')
            continue;
        const std::size_t line_out = out;
        const std::size_t line_cells = ends.size();
        const std::size_t open_quote = splitLine(buf, begin, end, out, ends);
        if (open_quote != 0) {
            out = line_out;
            ends.resize(line_cells);
            if (!options.salvage) {
                mtperf_fatal(at(source, line_no, open_quote),
                             "unterminated quote in CSV line");
            }
            ++table.droppedRows;
            continue;
        }
        const std::size_t fields = ends.size() - line_cells;
        if (!have_header) {
            table.header = fieldStrings(buf, line_out,
                                        ends.data() + line_cells, fields);
            out = line_out;
            ends.resize(line_cells);
            have_header = true;
            // Make room for every cell the rest can hold, so the cell
            // ends never move while they grow: at most a row per line,
            // and at most one cell per byte (each ends at a ',' or a
            // '\n'), which bounds the room by the input's size.
            const std::size_t lines_left = lineCount(buf + pos, size - pos);
            ends.reserve(std::min(lines_left * fields, size - pos + 1));
            table.rowLines.reserve(lines_left);
        } else if (fields != table.header.size()) {
            out = line_out;
            ends.resize(line_cells);
            if (options.salvage) {
                ++table.droppedRows;
                continue;
            }
            mtperf_fatal(at(source, line_no), "ragged CSV row: expected ",
                         table.header.size(), " fields, got ", fields);
        } else {
            table.rowLines.push_back(line_no);
        }
    }
    if (!have_header)
        mtperf_fatal(source, ": empty CSV input");
    if (!footer_seen) {
        // Either a foreign CSV or an mtperf CSV whose tail (rows and
        // footer) was cut off -- the two are indistinguishable, so
        // accept the data but say that completeness is unverified.
        warn(source, ": no integrity footer; truncation would be "
             "undetectable");
    }
    if (table.droppedRows > 0) {
        warn(source, ": salvage dropped ", table.droppedRows,
             " malformed CSV row", table.droppedRows == 1 ? "" : "s");
    }
    text.resize(out);
    table.cells_ = std::move(text);
    return table;
}

std::string
CsvCodec::format(const CsvTable &table)
{
    const std::size_t columns = table.columns();
    const std::size_t rows = table.rows();
    mtperf_assert(table.ends_.size() == rows * columns,
                  "CSV table ends with a partial row");
    std::string out;
    for (std::size_t c = 0; c < columns; ++c) {
        if (c)
            out.push_back(',');
        appendField(out, table.header[c]);
    }
    out.push_back('\n');
    out.reserve(out.size() + table.cells_.size() + table.ends_.size());
    // One scan of all cells decides whether any needs quoting at all.
    const bool plain = !needsQuoting(table.cells_);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < columns; ++c) {
            if (c)
                out.push_back(',');
            const std::string_view field = table.cell(r, c);
            if (plain)
                out += field;
            else
                appendField(out, field);
        }
        out.push_back('\n');
    }
    return out;
}

void
CsvTable::addRow(std::initializer_list<std::string_view> cells)
{
    mtperf_assert(cells.size() == columns(), "CSV row of ", cells.size(),
                  " cells in a table of ", columns(), " columns");
    for (std::string_view text : cells)
        addCell(text);
}

void
CsvTable::reserve(std::size_t rows, std::size_t bytes)
{
    cells_.reserve(bytes);
    ends_.reserve(rows * columns());
}

std::size_t
CsvTable::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name)
            return i;
    }
    mtperf_fatal(source, ": CSV has no column named '", name, "'");
}

std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::string buf = line;
    std::vector<std::size_t> ends;
    std::size_t out = 0;
    const std::size_t open_quote =
        splitLine(buf.data(), 0, buf.size(), out, ends);
    if (open_quote != 0) {
        mtperf_fatal(at("<csv>", 0, open_quote),
                     "unterminated quote in CSV line");
    }
    return fieldStrings(buf.data(), 0, ends.data(), ends.size());
}

std::string
csvEscape(std::string_view field)
{
    if (!needsQuoting(field))
        return std::string(field);
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

CsvTable
readCsv(std::istream &in, const std::string &source,
        const CsvReadOptions &options)
{
    obs::ScopedSpan span("data", "data.read_csv");
    return CsvCodec::read(readAll(in), source, options);
}

CsvTable
readCsvFile(const std::string &path, const CsvReadOptions &options)
{
    MTPERF_FAULT_POINT("fs.open.fail");
    std::ifstream in(path);
    if (!in)
        mtperf_fatal("cannot open CSV file: ", path);
    return readCsv(in, path, options);
}

void
writeCsv(std::ostream &out, const CsvTable &table)
{
    const std::string text = CsvCodec::format(table);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void
writeCsvFile(const std::string &path, const CsvTable &table)
{
    obs::ScopedSpan span("data", "data.write_csv");
    const std::string text = CsvCodec::format(table);
    MTPERF_FAULT_POINT("csv.write.fail");
    atomicWriteFile(path, [&](std::ostream &out) {
        out << text << kFooterPrefix << "rows=" << table.rows()
            << " crc32=" << crc32Hex(crc32(text)) << "\n";
    });
}

} // namespace mtperf
