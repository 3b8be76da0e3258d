/**
 * @file
 * SDR split search shared by the tree learners.
 *
 * Both M5' and the plain regression tree pick splits by maximizing the
 * standard-deviation reduction
 *
 *   SDR = sd(T) - |T_l|/|T| * sd(T_l) - |T_r|/|T| * sd(T_r)
 *
 * over every (attribute, boundary-between-distinct-values) candidate.
 * Two implementations of the same search live here:
 *
 *  - bruteForceBestSplit() sorts the node's rows per attribute with a
 *    (value, row position) comparator on every call — O(d * n log n)
 *    per node. It is the reference implementation the property tests
 *    compare against, and the only comparator sort left.
 *  - PresortedColumns sorts each feature column exactly once (at the
 *    tree root) into per-attribute row-index arrays and then *stably
 *    partitions* those arrays down the tree at each split (the CART
 *    presort trick), so every later node's search is a single O(d * n)
 *    scan with no sorting at all. The root sort is a stable LSD radix
 *    sort of the row ids on a 64-bit key whose unsigned order is the
 *    values' order (sign bit set on positives, every bit flipped on
 *    negatives, -0.0 read as +0.0): O(d * n), with O(n) scratch.
 *
 * Deterministic ordering contract (relied on by the byte-identity
 * tests and documented in DESIGN.md §11):
 *
 *  - Rows are scanned per attribute in (value ascending, row position
 *    ascending) order; all prefix sums accumulate in that order, so
 *    the chosen split is a pure function of the node's row set. -0.0
 *    and +0.0 are equal values. NaN has no place in the order: the
 *    CSV reader rejects it, and the comparator gave std::sort an
 *    invalid ordering on it.
 *  - Candidate thresholds exist only at boundaries between distinct
 *    attribute values and are the midpoint 0.5 * (v_i + v_{i+1}).
 *  - Ties on SDR break to the lowest attribute index, then to the
 *    lowest threshold (see splitBeats()).
 */

#ifndef MTPERF_ML_TREE_SPLIT_SEARCH_H_
#define MTPERF_ML_TREE_SPLIT_SEARCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace mtperf {

/** Winning split of one SDR search (invalid when no candidate exists). */
struct SplitChoice
{
    bool valid = false;
    std::size_t attr = 0;
    double value = 0.0;
    double sdr = -1.0;
};

/**
 * Tie-breaking order for split candidates: higher SDR wins; on equal
 * SDR the lower attribute index wins; on equal attribute the lower
 * threshold wins. Scanning attributes ascending and thresholds
 * ascending makes this equivalent to a strict "sdr > best.sdr" test,
 * but spelling it out keeps the contract explicit (and testable).
 */
inline bool
splitBeats(const SplitChoice &best, double sdr, std::size_t attr,
           double value)
{
    if (!best.valid)
        return true;
    if (sdr != best.sdr)
        return sdr > best.sdr;
    if (attr != best.attr)
        return attr < best.attr;
    return value < best.value;
}

/**
 * Scan one attribute's rows, already gathered in (value ascending,
 * row position ascending) order, and fold the best boundary into
 * @p best. Shared by both search implementations so their arithmetic
 * is identical operation-for-operation.
 */
void scanSplitCandidates(std::span<const double> keys,
                         std::span<const double> targets,
                         std::size_t attr, std::size_t min_instances,
                         SplitChoice &best);

/**
 * Reference O(d * n log n) search: stably sorts @p rows by each
 * attribute (value, then row position) and scans every boundary.
 */
SplitChoice bruteForceBestSplit(const Dataset &ds,
                                std::span<const std::size_t> rows,
                                std::size_t min_instances);

/**
 * Presorted per-attribute row-index columns over a whole training
 * set, partitioned in place down the tree. Usage:
 *
 *   PresortedColumns cols;
 *   cols.build(ds);                         // once, at the root
 *   SplitChoice c = cols.bestSplit(ds, lo, hi, min_instances);
 *   std::size_t mid = cols.partition(ds, lo, hi, c.attr, c.value);
 *   // left child owns [lo, mid), right child owns [mid, hi)
 *
 * partition() is stable, so every column stays in (value, row
 * position) order within each child range forever — bestSplit() never
 * sorts again. Not thread-safe; one instance serves one tree fit.
 */
class PresortedColumns
{
  public:
    /** Sort every feature column of @p ds; O(d * n), once. */
    void build(const Dataset &ds);

    bool built() const { return !cols_.empty(); }

    /** Number of rows covered (the full training set). */
    std::size_t size() const { return goesLeft_.size(); }

    /** Best split over the rows in range [lo, hi) of every column. */
    SplitChoice bestSplit(const Dataset &ds, std::size_t lo,
                          std::size_t hi, std::size_t min_instances);

    /**
     * Stably split range [lo, hi) of every column on
     * value(row, attr) <= value.
     * @return mid such that rows going left now occupy [lo, mid).
     */
    std::size_t partition(const Dataset &ds, std::size_t lo,
                          std::size_t hi, std::size_t attr, double value);

    /** Row ids of column @p attr in (value, row) order (for tests). */
    std::span<const std::uint32_t> column(std::size_t attr) const
    {
        return cols_[attr];
    }

  private:
    std::vector<std::vector<std::uint32_t>> cols_;
    std::vector<std::uint8_t> goesLeft_;  //!< indexed by row id
    std::vector<std::uint32_t> scratch_;  //!< right-side spill buffer
    std::vector<double> keys_;            //!< gathered attribute values
    std::vector<double> targets_;         //!< gathered target values
};

} // namespace mtperf

#endif // MTPERF_ML_TREE_SPLIT_SEARCH_H_
