#include "ml/tree/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "ml/linear/linear_model.h"
#include "ml/tree/split_search.h"

namespace mtperf {

struct RegressionTree::Node
{
    bool leaf = true;
    std::size_t splitAttr = 0;
    double splitValue = 0.0;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;

    std::vector<std::size_t> rows;
    std::size_t count = 0;
    double meanTarget = 0.0;
    double sdTarget = 0.0;
};

struct RegressionTree::GrowCtx
{
    PresortedColumns cols;
};

RegressionTree::RegressionTree(RegressionTreeOptions options)
    : options_(options)
{
    if (options_.minInstances < 1)
        mtperf_fatal("RegressionTree: minInstances must be >= 1");
}

RegressionTree::~RegressionTree() = default;
RegressionTree::RegressionTree(RegressionTree &&) noexcept = default;
RegressionTree &
RegressionTree::operator=(RegressionTree &&) noexcept = default;

void
RegressionTree::fit(const Dataset &train)
{
    if (train.empty())
        mtperf_fatal("RegressionTree: empty training set");
    trainData_ = &train;

    std::vector<std::size_t> rows(train.size());
    std::iota(rows.begin(), rows.end(), 0);

    double sum = 0.0, sq = 0.0;
    for (std::size_t r : rows) {
        sum += train.target(r);
        sq += train.target(r) * train.target(r);
    }
    const auto n = static_cast<double>(rows.size());
    rootSd_ = std::sqrt(std::max(0.0, sq / n - (sum / n) * (sum / n)));

    root_ = std::make_unique<Node>();
    GrowCtx ctx;
    growNode(*root_, rows, 0, train.size(), 0, ctx);
    if (options_.prune)
        pruneNode(*root_);

    struct Scrubber
    {
        static void
        scrub(Node &node)
        {
            node.rows.clear();
            node.rows.shrink_to_fit();
            if (node.left)
                scrub(*node.left);
            if (node.right)
                scrub(*node.right);
        }
    };
    Scrubber::scrub(*root_);
    trainData_ = nullptr;
}

void
RegressionTree::growNode(Node &node, std::vector<std::size_t> &rows,
                         std::size_t lo, std::size_t hi,
                         std::size_t depth, GrowCtx &ctx)
{
    const Dataset &ds = *trainData_;
    node.count = rows.size();

    double sum = 0.0, sq = 0.0;
    for (std::size_t r : rows) {
        sum += ds.target(r);
        sq += ds.target(r) * ds.target(r);
    }
    const auto dn = static_cast<double>(rows.size());
    node.meanTarget = sum / dn;
    node.sdTarget = std::sqrt(
        std::max(0.0, sq / dn - node.meanTarget * node.meanTarget));

    const bool too_small = rows.size() < 2 * options_.minInstances ||
                           rows.size() < 4;
    const bool pure = node.sdTarget < options_.sdFraction * rootSd_;
    const bool too_deep =
        options_.maxDepth != 0 && depth >= options_.maxDepth;
    if (too_small || pure || too_deep) {
        node.rows = std::move(rows);
        return;
    }

    // Same presort-once, partition-down scheme as M5Prime::growNode
    // (see split_search.h for the ordering contract).
    if (!ctx.cols.built())
        ctx.cols.build(ds);
    const SplitChoice best =
        ctx.cols.bestSplit(ds, lo, hi, options_.minInstances);

    if (!best.valid) {
        node.rows = std::move(rows);
        return;
    }

    node.leaf = false;
    node.splitAttr = best.attr;
    node.splitValue = best.value;

    std::vector<std::size_t> left_rows, right_rows;
    for (std::size_t r : rows) {
        if (ds.value(r, best.attr) <= best.value)
            left_rows.push_back(r);
        else
            right_rows.push_back(r);
    }
    node.rows = std::move(rows);

    const std::size_t mid =
        ctx.cols.partition(ds, lo, hi, best.attr, best.value);
    mtperf_assert(mid - lo == left_rows.size(),
                  "presorted partition disagrees with the row split");

    node.left = std::make_unique<Node>();
    node.right = std::make_unique<Node>();
    growNode(*node.left, left_rows, lo, mid, depth + 1, ctx);
    growNode(*node.right, right_rows, mid, hi, depth + 1, ctx);
}

RegressionTree::SubtreeCost
RegressionTree::pruneNode(Node &node)
{
    const Dataset &ds = *trainData_;

    auto raw_mae = [&ds](const Node &nd) {
        double mae = 0.0;
        for (std::size_t r : nd.rows)
            mae += std::abs(ds.target(r) - nd.meanTarget);
        return mae / static_cast<double>(nd.count);
    };

    if (node.leaf)
        return {raw_mae(node), 1};

    const SubtreeCost left = pruneNode(*node.left);
    const SubtreeCost right = pruneNode(*node.right);
    const auto nl = static_cast<double>(node.left->count);
    const auto nr = static_cast<double>(node.right->count);

    SubtreeCost subtree;
    subtree.rawMae = (nl * left.rawMae + nr * right.rawMae) / (nl + nr);
    subtree.parameters = left.parameters + right.parameters + 1;

    // Pessimistic compensation charging the subtree's leaf means and
    // split thresholds against the node's instances.
    const double subtree_err =
        compensatedError(subtree.rawMae, node.count, subtree.parameters);
    const double node_err = compensatedError(raw_mae(node), node.count, 1);

    if (node_err <= subtree_err) {
        node.leaf = true;
        node.left.reset();
        node.right.reset();
        return {raw_mae(node), 1};
    }
    return subtree;
}

double
RegressionTree::predict(std::span<const double> row) const
{
    mtperf_assert(root_ != nullptr, "predict() before fit()");
    const Node *node = root_.get();
    while (!node->leaf) {
        node = row[node->splitAttr] <= node->splitValue ? node->left.get()
                                                        : node->right.get();
    }
    return node->meanTarget;
}

std::size_t
RegressionTree::numLeaves() const
{
    struct Counter
    {
        static std::size_t
        count(const Node &node)
        {
            if (node.leaf)
                return 1;
            return count(*node.left) + count(*node.right);
        }
    };
    mtperf_assert(root_ != nullptr, "numLeaves() before fit()");
    return Counter::count(*root_);
}

} // namespace mtperf
