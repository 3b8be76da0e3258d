#include "ml/tree/flat_tree.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace mtperf {

FlatTree::Ref
FlatTree::Builder::addSplit(std::size_t attr, double value)
{
    const Ref ref = static_cast<Ref>(tree_.splitAttr_.size());
    tree_.splitAttr_.push_back(static_cast<std::uint32_t>(attr));
    tree_.splitValue_.push_back(value);
    tree_.left_.push_back(0);
    tree_.right_.push_back(0);
    return ref;
}

FlatTree::Ref
FlatTree::Builder::addLeaf(const LinearModel &model)
{
    const Ref ref = ~static_cast<Ref>(tree_.intercept_.size());
    tree_.intercept_.push_back(model.intercept());
    tree_.termStart_.push_back(
        static_cast<std::uint32_t>(tree_.termAttr_.size()));
    tree_.termCount_.push_back(
        static_cast<std::uint32_t>(model.terms().size()));
    for (const LinearModel::Term &term : model.terms()) {
        tree_.termAttr_.push_back(
            static_cast<std::uint32_t>(term.attr));
        tree_.termCoef_.push_back(term.coef);
    }
    return ref;
}

void
FlatTree::Builder::setChildren(Ref node, Ref left, Ref right)
{
    mtperf_assert(node >= 0 &&
                      static_cast<std::size_t>(node) <
                          tree_.left_.size(),
                  "FlatTree::Builder: bad node reference");
    tree_.left_[static_cast<std::size_t>(node)] = left;
    tree_.right_[static_cast<std::size_t>(node)] = right;
}

FlatTree
FlatTree::Builder::build(Ref root) &&
{
    mtperf_assert(!tree_.intercept_.empty(),
                  "FlatTree::Builder: a tree needs at least one leaf");
    tree_.root_ = root;
    return std::move(tree_);
}

void
FlatTree::descend(const double *rows, std::size_t width, std::size_t n,
                  Ref *cursor) const
{
    std::size_t descending = root_ >= 0 ? n : 0;
    for (std::size_t i = 0; i < n; ++i)
        cursor[i] = root_;
    // One pass per tree level: every still-descending row takes one
    // branch. Rows finish at different depths; finished rows carry a
    // negative (leaf) reference and are skipped.
    while (descending > 0) {
        descending = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Ref ref = cursor[i];
            if (ref < 0)
                continue;
            const auto node = static_cast<std::size_t>(ref);
            const double v = rows[i * width + splitAttr_[node]];
            ref = v <= splitValue_[node] ? left_[node] : right_[node];
            cursor[i] = ref;
            descending += ref >= 0 ? 1u : 0u;
        }
    }
}

void
FlatTree::predictBlock(const double *rows, std::size_t width,
                       std::size_t n, double *out) const
{
    mtperf_assert(!intercept_.empty(),
                  "FlatTree::predictBlock on an empty tree");
    for (std::size_t base = 0; base < n; base += kMaxBlock) {
        const std::size_t m = std::min(kMaxBlock, n - base);
        const double *block = rows + base * width;
        double *block_out = out + base;

        Ref cursor[kMaxBlock];
        descend(block, width, m, cursor);

        // Group rows by leaf so each leaf's model is evaluated
        // term-major over the whole group: the (attr, coef) pair
        // stays in registers while the accumulators stream.
        std::uint32_t order[kMaxBlock];
        std::iota(order, order + m, 0u);
        std::sort(order, order + m,
                  [&cursor](std::uint32_t a, std::uint32_t b) {
                      return cursor[a] < cursor[b];
                  });

        double acc[kMaxBlock];
        std::size_t i = 0;
        while (i < m) {
            const Ref leaf_ref = cursor[order[i]];
            std::size_t j = i;
            while (j < m && cursor[order[j]] == leaf_ref)
                ++j;
            const auto leaf = static_cast<std::size_t>(~leaf_ref);
            const double base_value = intercept_[leaf];
            for (std::size_t k = i; k < j; ++k)
                acc[k] = base_value;
            const std::size_t start = termStart_[leaf];
            const std::size_t stop = start + termCount_[leaf];
            for (std::size_t t = start; t < stop; ++t) {
                const std::size_t attr = termAttr_[t];
                const double coef = termCoef_[t];
                for (std::size_t k = i; k < j; ++k)
                    acc[k] += coef * block[order[k] * width + attr];
            }
            for (std::size_t k = i; k < j; ++k)
                block_out[order[k]] = acc[k];
            i = j;
        }
    }
}

} // namespace mtperf
