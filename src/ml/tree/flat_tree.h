/**
 * @file
 * Flat, cache-friendly compilation of a fitted model tree.
 *
 * M5Prime's pointer tree is ideal for construction and introspection
 * but hostile to batch inference: every row chases unique_ptr children
 * across the heap, and every leaf prediction virtual-dispatches into a
 * LinearModel holding its terms in yet another allocation. FlatTree
 * compiles the fitted structure once (after fit() or load()) into
 * structure-of-arrays form:
 *
 *  - interior nodes: parallel arrays of split attribute, threshold,
 *    and child references (a non-negative reference is a node index,
 *    a negative one encodes a leaf as ~leafIndex);
 *  - leaves: one intercept per leaf plus all linear-model terms
 *    flattened into contiguous (attr, coef) arrays sliced by a
 *    per-leaf [termStart, termStart+termCount) range.
 *
 * predictBlock then runs level-by-level descent over a whole block of
 * rows (each row holds a current-reference cursor; one pass moves
 * every still-descending row one level down) followed by leaf-grouped,
 * term-major linear-model evaluation: rows landing in the same leaf
 * are evaluated together, one (attr, coef) term at a time, over a
 * contiguous accumulator array — the loops the compiler can keep in
 * registers and vectorize.
 *
 * Determinism contract: for every row the arithmetic is exactly
 * `intercept + sum(coef_i * row[attr_i])` in stored term order — the
 * same operations, in the same order, as the scalar walk through
 * M5Prime::predict -> LinearModel::predict — so batch results are
 * bit-identical to scalar results at any block size or thread count.
 */

#ifndef MTPERF_ML_TREE_FLAT_TREE_H_
#define MTPERF_ML_TREE_FLAT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/linear/linear_model.h"

namespace mtperf {

/** Flat-array compilation of a fitted model tree (see file comment). */
class FlatTree
{
  public:
    /**
     * A child/root reference: >= 0 is an interior-node index, < 0
     * encodes leaf `~ref`.
     */
    using Ref = std::int32_t;

    /**
     * Incremental constructor used by the tree owner, which knows the
     * pointer structure; FlatTree itself never sees a Node. Defined
     * after the class (it holds a FlatTree by value).
     */
    class Builder;

    FlatTree() = default;

    std::size_t numNodes() const { return splitAttr_.size(); }
    std::size_t numLeaves() const { return intercept_.size(); }

    /**
     * Predict @p n rows (row-major, @p width values each) into
     * @p out. Bit-identical to the scalar root-to-leaf walk.
     */
    void predictBlock(const double *rows, std::size_t width,
                      std::size_t n, double *out) const;

  private:
    /**
     * Per-block scratch ceiling: descent cursors and leaf grouping
     * live on the stack, so callers must not exceed it.
     */
    static constexpr std::size_t kMaxBlock = 1024;

    void descend(const double *rows, std::size_t width, std::size_t n,
                 Ref *cursor) const;

    Ref root_ = ~Ref{0};

    // Interior nodes, structure-of-arrays.
    std::vector<std::uint32_t> splitAttr_;
    std::vector<double> splitValue_;
    std::vector<Ref> left_;
    std::vector<Ref> right_;

    // Leaves: intercepts plus flattened model terms.
    std::vector<double> intercept_;
    std::vector<std::uint32_t> termStart_;
    std::vector<std::uint32_t> termCount_;
    std::vector<std::uint32_t> termAttr_;
    std::vector<double> termCoef_;
};

class FlatTree::Builder
{
  public:
    /** Append an interior node; children are patched in later. */
    Ref addSplit(std::size_t attr, double value);

    /** Append a leaf carrying @p model. @return its leaf ref. */
    Ref addLeaf(const LinearModel &model);

    /** Patch the children of interior node @p node. */
    void setChildren(Ref node, Ref left, Ref right);

    /** @param root the reference of the tree's root. */
    FlatTree build(Ref root) &&;

  private:
    FlatTree tree_;
};

} // namespace mtperf

#endif // MTPERF_ML_TREE_FLAT_TREE_H_
