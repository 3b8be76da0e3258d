/**
 * @file
 * The tree grower shared by M5' and the CART baseline: SDR split
 * search, growth, pessimistic pruning and root-to-leaf descent.
 *
 * Both learners grow the same tree (growTree()) by maximizing the
 * standard-deviation reduction
 *
 *   SDR = sd(T) - |T_l|/|T| * sd(T_l) - |T_r|/|T| * sd(T_r)
 *
 * over every (attribute, boundary-between-distinct-values) candidate,
 * and prune it through the same walk (pruneTree()); they differ only
 * in the model each node carries. Two implementations of the search
 * live here:
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
 *    negatives, -0.0 read as +0.0): O(d * n), with O(n) scratch. An
 *    ascending row-id column is partitioned with the others, so the
 *    grower reads each child's rows from it instead of splitting the
 *    rows a second time.
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
 *  - Every node's rows are in ascending row order, so every sum over
 *    them accumulates in one order.
 *
 * One top-level fit runs on the global pool (DESIGN.md §7, §11): the
 * presort takes one task per column, a node's search one task per
 * attribute, its partition one task per column, each into its own
 * slot, and the per-attribute winners are reduced in ascending
 * attribute order. Any thread count gives the serial answer bit for
 * bit. A fit inside a pool task (a CV fold, a bag) or on a one-thread
 * pool runs the serial loops.
 */

#ifndef MTPERF_ML_TREE_SPLIT_SEARCH_H_
#define MTPERF_ML_TREE_SPLIT_SEARCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/linear/linear_model.h"

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
 * Rows x attributes below which a node's split search and partition,
 * a presort, or a fit's node models stay on the calling thread. Below
 * it the pool round trip (tens of microseconds, more when workers
 * sleep) costs more than the d-way split of the work saves; the
 * measured basis is in DESIGN.md §11.
 */
inline constexpr std::size_t kParallelMinCells = 16384;

/**
 * Pool tasks a fit over @p ds may fan out over: 1 when its rows x
 * attributes are below kParallelMinCells, inside a pool task (the fit
 * of a CV fold, a bag or a LOWO round) and on a one-thread pool, where
 * every phase runs its serial loop; the global pool's size otherwise.
 */
std::size_t treeFitLanes(const Dataset &ds);

/**
 * Presorted per-attribute row-index columns over a whole training
 * set, partitioned in place down the tree. Usage:
 *
 *   PresortedColumns cols;
 *   cols.build(ds);                         // once, at the root
 *   SplitChoice c = cols.bestSplit(ds, lo, hi, min_instances);
 *   std::size_t mid = cols.partition(ds, lo, hi, c.attr, c.value);
 *   // left child owns [lo, mid), right child owns [mid, hi);
 *   // their rows are cols.rows(lo, mid) and cols.rows(mid, hi)
 *
 * partition() is stable, so every column stays in (value, row
 * position) order within each child range forever — bestSplit() never
 * sorts again — and the row-id column stays ascending. Not
 * thread-safe; one instance serves one tree fit. build(), and
 * bestSplit() and partition() over at least kParallelMinCells cells,
 * fan out over treeFitLanes() pool tasks, each with its own n-row
 * slot of scratch, and give the serial result.
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

    /** Row ids in range [lo, hi), ascending. */
    std::span<const std::uint32_t> rows(std::size_t lo, std::size_t hi) const
    {
        return std::span<const std::uint32_t>(ids_).subspan(lo, hi - lo);
    }

    /** Row ids of column @p attr in (value, row) order (for tests). */
    std::span<const std::uint32_t> column(std::size_t attr) const
    {
        return cols_[attr];
    }

  private:
    /** True when work over @p rows rows of every column fans out. */
    bool fansOut(std::size_t rows) const;

    /**
     * The serial search, every attribute in order on lane 0: what
     * bestSplit() returns when an attribute's winner has a NaN SDR.
     */
    SplitChoice serialBestSplit(const Dataset &ds, std::size_t lo,
                                std::size_t hi,
                                std::size_t min_instances);

    /** Gather attribute @p attr of range [lo, hi) into @p lane's slot. */
    void gather(const Dataset &ds, std::size_t lo, std::size_t hi,
                std::size_t attr, std::size_t lane);

    std::vector<std::vector<std::uint32_t>> cols_;
    std::vector<std::uint32_t> ids_;      //!< row ids, ascending per range
    std::vector<std::uint8_t> goesLeft_;  //!< indexed by row id
    std::size_t lanes_ = 1;               //!< tasks a partition may use
    // Scratch, one n-entry slot per task: lanes_ spill slots, and
    // min(lanes_, d) gather slots (a search runs at most d tasks).
    std::vector<std::uint32_t> scratch_;  //!< right-side spill buffers
    std::vector<double> keys_;            //!< gathered attribute values
    std::vector<double> targets_;         //!< gathered target values
    std::vector<SplitChoice> choices_;    //!< per-attribute winners
};

/**
 * One node of a grown tree. growTree() fills the structure, the row
 * set and the target statistics; the learner fills model and modelMae
 * before pruneTree() and numbers the leaves it keeps.
 */
struct TreeNode
{
    bool leaf = true;
    std::size_t splitAttr = 0;
    double splitValue = 0.0;
    std::unique_ptr<TreeNode> left;
    std::unique_ptr<TreeNode> right;

    std::vector<std::size_t> rows; //!< training rows here, ascending
    std::size_t count = 0;
    double meanTarget = 0.0;
    double sdTarget = 0.0;

    LinearModel model;
    double modelMae = 0.0; //!< model MAE over rows, read by pruneTree()
    int leafId = -1;       //!< dense leaf index, left to right
};

/** Stop rules of growTree(). */
struct GrowLimits
{
    /** Minimum training rows on each side of any split. */
    std::size_t minInstances = 4;
    /** Stop below this fraction of the root's target deviation. */
    double sdFraction = 0.05;
    /** Maximum depth (0 = unlimited). */
    std::size_t maxDepth = 0;
};

/**
 * @throw FatalError naming @p learner unless minInstances >= 1 and
 * sdFraction is finite and >= 0.
 */
void checkGrowLimits(const GrowLimits &limits, const std::string &learner);

/**
 * Grow a tree over every row of @p ds. A node stays a leaf when it
 * holds fewer than max(2 * minInstances, 4) rows, its target deviation
 * is below sdFraction times the root's, it sits at maxDepth, or no
 * split leaves minInstances rows on each side; otherwise it takes the
 * best presorted split. Every node keeps its rows until releaseRows().
 */
std::unique_ptr<TreeNode> growTree(const Dataset &ds,
                                   const GrowLimits &limits);

/**
 * Quinlan's pessimistic pruning, bottom-up: a subtree becomes a leaf
 * when compensatedError() of its node's model is no worse than the
 * subtree's, which is charged for every leaf-model parameter and every
 * split threshold below the node. Every node must carry its model and
 * modelMae.
 */
void pruneTree(TreeNode &root);

/** The leaf that @p row reaches from @p root. */
const TreeNode &leafFor(const TreeNode &root, std::span<const double> row);

/** Number of leaves under @p root (a grown tree has 2 * leaves - 1 nodes). */
std::size_t countLeaves(const TreeNode &root);

/** Free the training rows of every node (predictions need none). */
void releaseRows(TreeNode &root);

} // namespace mtperf

#endif // MTPERF_ML_TREE_SPLIT_SEARCH_H_
