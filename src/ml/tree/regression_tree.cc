#include "ml/tree/regression_tree.h"

#include "common/logging.h"
#include "ml/linear/linear_model.h"
#include "ml/tree/split_search.h"

namespace mtperf {

namespace {

/** The stop rules CART grows under. */
GrowLimits
growLimits(const RegressionTreeOptions &options)
{
    return {.minInstances = options.minInstances,
            .sdFraction = options.sdFraction,
            .maxDepth = options.maxDepth};
}

/**
 * Give @p node and every node below it the constant model of its
 * target mean, with that model's MAE over the node's rows.
 */
void
fitMeans(const Dataset &ds, TreeNode &node)
{
    node.model = LinearModel::constant(node.meanTarget);
    node.modelMae = node.model.meanAbsoluteError(ds, node.rows);
    if (node.leaf)
        return;
    fitMeans(ds, *node.left);
    fitMeans(ds, *node.right);
}

} // namespace

RegressionTree::RegressionTree(RegressionTreeOptions options)
    : options_(options)
{
    checkGrowLimits(growLimits(options_), "RegressionTree");
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
    root_ = growTree(train, growLimits(options_));
    if (options_.prune) {
        // A constant model has one parameter, so the M5' walk charges
        // each leaf one mean and each split one threshold.
        fitMeans(train, *root_);
        pruneTree(*root_);
    }
    releaseRows(*root_);
}

double
RegressionTree::predict(std::span<const double> row) const
{
    mtperf_assert(root_ != nullptr, "predict() before fit()");
    return leafFor(*root_, row).meanTarget;
}

std::size_t
RegressionTree::numLeaves() const
{
    mtperf_assert(root_ != nullptr, "numLeaves() before fit()");
    return countLeaves(*root_);
}

} // namespace mtperf
