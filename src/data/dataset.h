/**
 * @file
 * The in-memory tabular dataset the learners consume.
 *
 * A Dataset is a schema, a dense row-major block of attribute values,
 * one target value per row, and an optional provenance tag per row
 * (e.g., "mcf_like/section_412") used by the analysis layer to report
 * which workloads populate which performance class.
 */

#ifndef MTPERF_DATA_DATASET_H_
#define MTPERF_DATA_DATASET_H_

#include <span>
#include <string>
#include <vector>

#include "data/attribute.h"

namespace mtperf {

/**
 * Per-row co-run provenance: which core produced a row and under
 * which co-run set. Rows from single-core runs carry none.
 */
struct RowCorun
{
    std::uint32_t core = 0;
    std::string corunSet;
};

/** Numeric regression dataset with named attributes and a target. */
class Dataset
{
  public:
    Dataset() = default;

    /** Construct an empty dataset over @p schema. */
    explicit Dataset(Schema schema);

    const Schema &schema() const { return schema_; }
    std::size_t numAttributes() const { return schema_.numAttributes(); }
    std::size_t size() const { return targets_.size(); }
    bool empty() const { return targets_.empty(); }

    /**
     * Append a row.
     * @param attrs one value per schema attribute.
     * @param target the dependent-variable value.
     * @param tag optional provenance label.
     * @throw FatalError if @p attrs has the wrong width.
     */
    void addRow(std::span<const double> attrs, double target,
                std::string tag = "");

    /**
     * Append a row carrying co-run provenance. A dataset either has
     * provenance on every row or on none; mixing the two addRow
     * flavours is a fatal error.
     */
    void addRowCorun(std::span<const double> attrs, double target,
                     std::string tag, RowCorun corun);

    /** Make room for @p rows rows, so appending them never reallocates. */
    void reserve(std::size_t rows);

    /** True when rows carry co-run provenance. */
    bool hasCorun() const { return !corun_.empty(); }

    /** Co-run provenance of row @p r. @pre hasCorun(). */
    const RowCorun &corun(std::size_t r) const;

    /** Attribute values of row @p r. */
    std::span<const double> row(std::size_t r) const;

    /** Value of attribute @p a in row @p r. */
    double value(std::size_t r, std::size_t a) const;

    /** Target value of row @p r. */
    double target(std::size_t r) const;

    /** Provenance tag of row @p r (may be empty). */
    const std::string &tag(std::size_t r) const;

    /** All targets, in row order. */
    const std::vector<double> &targets() const { return targets_; }

    /**
     * The dense row-major attribute block, size() * numAttributes()
     * values. This is what batch prediction consumes directly.
     */
    std::span<const double> flatValues() const { return values_; }

    /** Copy of attribute column @p a. */
    std::vector<double> column(std::size_t a) const;

    /** New dataset with the rows selected by @p indices, in order. */
    Dataset subset(std::span<const std::size_t> indices) const;

    /**
     * New dataset keeping only the attributes selected by
     * @p attribute_indices (in the given order); rows, targets and
     * tags are preserved. Used for counter-subset ablations.
     */
    Dataset withAttributes(
        std::span<const std::size_t> attribute_indices) const;

    /**
     * Append all rows of @p other.
     * @throw FatalError if schemas differ.
     */
    void append(const Dataset &other);

  private:
    Schema schema_;
    std::vector<double> values_;   //!< row-major, size() * numAttributes()
    std::vector<double> targets_;
    std::vector<std::string> tags_;
    std::vector<RowCorun> corun_;  //!< empty, or one entry per row
};

} // namespace mtperf

#endif // MTPERF_DATA_DATASET_H_
