#include "data/io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/strings.h"

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

/**
 * parseDouble() on one cell. The cell's context is built only when the
 * plain parse fails: formatting it costs more than the parse itself.
 */
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
                if (core_value < 0 ||
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

/** A cell value as `%.12g` prints it, without a stream per cell. */
std::string
formatCell(double v)
{
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, v,
                                      std::chars_format::general, 12);
    return std::string(buffer, result.ptr);
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
    table.rows.reserve(ds.size());
    for (std::size_t r = 0; r < ds.size(); ++r) {
        std::vector<std::string> row;
        row.reserve(table.header.size());
        for (double v : ds.row(r))
            row.push_back(formatCell(v));
        row.push_back(formatCell(ds.target(r)));
        row.push_back(ds.tag(r));
        if (ds.hasCorun()) {
            row.push_back(std::to_string(ds.corun(r).core));
            row.push_back(ds.corun(r).corunSet);
        }
        table.rows.push_back(std::move(row));
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
