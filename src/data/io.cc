#include "data/io.h"

#include <cfloat>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace mtperf {

namespace {

/** "source:line:field N (name)" context for one CSV cell. */
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

/** Powers of ten, each an exact double. */
constexpr double kPowersOfTen[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,
                                   1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13,
                                   1e14, 1e15, 1e16, 1e17, 1e18};

/**
 * Parse @p text if it is a plain decimal, "[-]digits[.digits]" with at
 * most 19 digits and a significand (the digits without the point) of
 * at most 2^53, to the bits std::from_chars gives it, in about half
 * its time. The significand and 10^fraction-digits are both exact
 * doubles, so their quotient, rounded once (FLT_EVAL_METHOD 0), is the
 * correctly rounded value of the text (Clinger's fast path), which is
 * what from_chars returns. @return false for any other text.
 */
bool
parsePlainDecimal(std::string_view text, double &value)
{
    if constexpr (FLT_EVAL_METHOD != 0)
        return false;
    const char *p = text.data();
    const char *const last = p + text.size();
    const bool negative = p != last && *p == '-';
    p += negative;
    std::uint64_t significand = 0; // wraps harmlessly past 19 digits
    const auto take_digits = [&] {
        const char *const first = p;
        for (; p != last && static_cast<unsigned char>(*p - '0') < 10; ++p)
            significand = significand * 10 + static_cast<unsigned>(*p - '0');
        return static_cast<std::size_t>(p - first);
    };
    std::size_t digits = take_digits();
    if (digits == 0)
        return false;
    std::size_t fraction = 0;
    if (p != last && *p == '.') {
        ++p;
        fraction = take_digits();
        if (fraction == 0)
            return false;
        digits += fraction;
    }
    if (p != last || digits > 19 || significand > (std::uint64_t{1} << 53))
        return false;
    const double magnitude =
        static_cast<double>(significand) / kPowersOfTen[fraction];
    value = negative ? -magnitude : magnitude;
    return true;
}

/**
 * parseDouble() on one cell. The cell's context is built only when the
 * plain parse fails: formatting it costs more than the parse itself.
 */
double
parseCell(const CsvTable &table, std::size_t row, std::size_t col)
{
    const std::string_view text = table.cell(row, col);
    double value = 0.0;
    if (parsePlainDecimal(text, value))
        return value;
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && ptr == last)
        return value;
    // Padded or malformed: parseDouble trims, then parses or throws.
    return parseDouble(text, cellContext(table, row, col));
}

} // namespace

Dataset
readDatasetCsv(std::istream &in, const std::string &target_name,
               const DatasetReadOptions &options,
               DatasetReadReport *report)
{
    CsvReadOptions csv_options;
    csv_options.salvage = options.salvage;
    const CsvTable table = readCsv(in, "<csv>", csv_options);
    return datasetFromCsvTable(table, target_name, options, report);
}

Dataset
datasetFromCsvTable(const CsvTable &table, const std::string &target_name,
                    const DatasetReadOptions &options,
                    DatasetReadReport *report)
{
    obs::ScopedSpan span("data", "data.build_dataset");
    const bool drop_bad_rows = options.salvage;
    const bool drop_non_finite =
        options.salvage || options.nonFinite == NonFinitePolicy::Drop;
    const std::size_t target_col = table.columnIndex(target_name);

    // "core" and "corun_set" are reserved provenance columns written
    // by multicore co-run collection; they only count as provenance
    // (not attributes) when both are present, so a hand-made dataset
    // with a single column of either name still round-trips.
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
    ds.reserve(table.rows());
    std::vector<double> attrs(attr_cols.size());
    std::size_t dropped = table.droppedRows;
    for (std::size_t r = 0; r < table.rows(); ++r) {
        bool row_ok = true;
        double target = 0.0;
        RowCorun corun;
        try {
            for (std::size_t i = 0; i < attr_cols.size(); ++i)
                attrs[i] = parseCell(table, r, attr_cols[i]);
            target = parseCell(table, r, target_col);
            if (has_corun) {
                const double core_value = parseCell(table, r, core_col);
                // The range test also rejects inf and NaN: a cast of a
                // value no uint32_t holds is undefined behaviour.
                if (!(core_value >= 0 &&
                      core_value <= std::numeric_limits<
                                        std::uint32_t>::max()) ||
                    core_value != std::floor(core_value)) {
                    mtperf_fatal(cellContext(table, r, core_col),
                                 ": core must be a nonnegative "
                                 "integer, got '",
                                 table.cell(r, core_col), "'");
                }
                corun.core = static_cast<std::uint32_t>(core_value);
                corun.corunSet = table.cell(r, set_col);
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
                                 ": non-finite value '",
                                 table.cell(r, bad_col),
                                 "' (use --salvage to drop such rows)");
                }
                row_ok = false;
            }
        }
        if (!row_ok) {
            ++dropped;
            continue;
        }
        std::string tag = tag_col == Schema::npos
                              ? std::string()
                              : std::string(table.cell(r, tag_col));
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

Dataset
readDatasetCsvFile(const std::string &path, const std::string &target_name,
                   const DatasetReadOptions &options,
                   DatasetReadReport *report)
{
    MTPERF_FAULT_POINT("fs.open.fail");
    std::ifstream in(path);
    if (!in)
        mtperf_fatal("cannot open dataset file: ", path);
    CsvReadOptions csv_options;
    csv_options.salvage = options.salvage;
    const CsvTable table = readCsv(in, path, csv_options);
    return datasetFromCsvTable(table, target_name, options, report);
}

namespace {

/** Append @p v as `%.12g` prints it, without a stream per cell. */
void
addNumberCell(CsvTable &table, double v)
{
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, v,
                                      std::chars_format::general, 12);
    table.addCell(std::string_view(buffer, result.ptr - buffer));
}

CsvTable
datasetToCsvTable(const Dataset &ds)
{
    CsvTable table;
    table.header = ds.schema().attributeNames();
    table.header.push_back(ds.schema().targetName());
    table.header.push_back("tag");
    // Reserved provenance columns, written only for co-run datasets
    // so single-core CSV bytes stay exactly as they always were.
    if (ds.hasCorun()) {
        table.header.push_back("core");
        table.header.push_back("corun_set");
    }
    // Counter cells average under 8 bytes; a longer table just grows.
    table.reserve(ds.size(), ds.size() * table.columns() * 8);
    for (std::size_t r = 0; r < ds.size(); ++r) {
        for (double v : ds.row(r))
            addNumberCell(table, v);
        addNumberCell(table, ds.target(r));
        table.addCell(ds.tag(r));
        if (ds.hasCorun()) {
            char buffer[16];
            const auto result = std::to_chars(buffer, buffer + sizeof buffer,
                                              ds.corun(r).core);
            table.addCell(std::string_view(buffer, result.ptr - buffer));
            table.addCell(ds.corun(r).corunSet);
        }
    }
    return table;
}

} // namespace

void
writeDatasetCsv(std::ostream &out, const Dataset &ds)
{
    writeCsv(out, datasetToCsvTable(ds));
}

void
writeDatasetCsvFile(const std::string &path, const Dataset &ds)
{
    writeCsvFile(path, datasetToCsvTable(ds));
}

Dataset
readDatasetArff(std::istream &in)
{
    std::vector<std::string> numeric_names;
    std::size_t tag_attr = Schema::npos;
    std::vector<bool> is_numeric;
    std::string line;
    bool in_data = false;

    Dataset ds;
    bool schema_built = false;

    while (std::getline(in, line)) {
        const std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '%')
            continue;
        const std::string lower = toLower(trimmed);
        if (!in_data) {
            if (startsWith(lower, "@relation")) {
                continue;
            } else if (startsWith(lower, "@attribute")) {
                std::istringstream fields(trimmed);
                std::string keyword, name, type;
                fields >> keyword >> name;
                std::getline(fields, type);
                type = toLower(trim(type));
                if (type == "numeric" || type == "real" ||
                    type == "integer") {
                    numeric_names.push_back(name);
                    is_numeric.push_back(true);
                } else if (type == "string") {
                    if (tag_attr != Schema::npos)
                        mtperf_fatal("ARFF: at most one string attribute "
                                     "(the tag) is supported");
                    tag_attr = is_numeric.size();
                    is_numeric.push_back(false);
                } else {
                    mtperf_fatal("ARFF: unsupported attribute type '", type,
                                 "' for attribute ", name);
                }
            } else if (startsWith(lower, "@data")) {
                if (numeric_names.size() < 2) {
                    mtperf_fatal("ARFF: need at least one attribute and "
                                 "one target");
                }
                const std::string target_name = numeric_names.back();
                numeric_names.pop_back();
                ds = Dataset(Schema(numeric_names, target_name));
                schema_built = true;
                in_data = true;
            } else {
                mtperf_fatal("ARFF: unexpected header line: ", trimmed);
            }
        } else {
            const auto fields = parseCsvLine(trimmed);
            if (fields.size() != is_numeric.size()) {
                mtperf_fatal("ARFF: data row has ", fields.size(),
                             " fields, expected ", is_numeric.size());
            }
            std::vector<double> values;
            std::string tag;
            for (std::size_t i = 0; i < fields.size(); ++i) {
                if (i == tag_attr) {
                    tag = trim(fields[i]);
                    if (tag.size() >= 2 && tag.front() == '\'' &&
                        tag.back() == '\'') {
                        tag = tag.substr(1, tag.size() - 2);
                    }
                } else {
                    const double v = parseDouble(fields[i], "ARFF cell");
                    if (!std::isfinite(v))
                        mtperf_fatal("ARFF: non-finite value '",
                                     fields[i], "'");
                    values.push_back(v);
                }
            }
            const double target = values.back();
            values.pop_back();
            ds.addRow(values, target, std::move(tag));
        }
    }
    if (!schema_built)
        mtperf_fatal("ARFF: missing @data section");
    return ds;
}

Dataset
readDatasetArffFile(const std::string &path)
{
    MTPERF_FAULT_POINT("fs.open.fail");
    std::ifstream in(path);
    if (!in)
        mtperf_fatal("cannot open ARFF file: ", path);
    return readDatasetArff(in);
}

void
writeDatasetArff(std::ostream &out, const Dataset &ds,
                 const std::string &relation)
{
    out << "@relation " << relation << "\n\n";
    for (std::size_t a = 0; a < ds.numAttributes(); ++a)
        out << "@attribute " << ds.schema().attributeName(a) << " numeric\n";
    out << "@attribute tag string\n";
    out << "@attribute " << ds.schema().targetName() << " numeric\n";
    out << "\n@data\n";
    out.precision(12);
    for (std::size_t r = 0; r < ds.size(); ++r) {
        for (double v : ds.row(r))
            out << v << ',';
        out << '\'' << ds.tag(r) << "'," << ds.target(r) << '\n';
    }
}

void
writeDatasetArffFile(const std::string &path, const Dataset &ds,
                     const std::string &relation)
{
    atomicWriteFile(path, [&](std::ostream &out) {
        writeDatasetArff(out, ds, relation);
    });
}

} // namespace mtperf
