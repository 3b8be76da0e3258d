/**
 * @file
 * A CART-style piecewise-constant regression tree baseline.
 *
 * The paper contrasts model trees with classical regression trees
 * (Breiman et al. 1984), which predict a constant at each leaf. This
 * tree grows and prunes through the same routines as M5'
 * (split_search.h): every node's model is the constant mean of its
 * rows, pruned under the same pessimistic error estimate, so the
 * comparison isolates exactly the leaf-model difference.
 */

#ifndef MTPERF_ML_TREE_REGRESSION_TREE_H_
#define MTPERF_ML_TREE_REGRESSION_TREE_H_

#include <memory>
#include <span>
#include <string>

#include "data/dataset.h"
#include "ml/regressor.h"

namespace mtperf {

struct TreeNode;

/** Tunables for the CART baseline. */
struct RegressionTreeOptions
{
    std::size_t minInstances = 4;  //!< minimum rows on each split side
    double sdFraction = 0.05;      //!< purity stop vs. root deviation
    bool prune = true;             //!< bottom-up pessimistic pruning
    std::size_t maxDepth = 0;      //!< 0 = unlimited
};

/** Piecewise-constant regression tree. */
class RegressionTree : public Regressor
{
  public:
    explicit RegressionTree(RegressionTreeOptions options = {});
    ~RegressionTree() override;

    RegressionTree(RegressionTree &&) noexcept;
    RegressionTree &operator=(RegressionTree &&) noexcept;
    RegressionTree(const RegressionTree &) = delete;
    RegressionTree &operator=(const RegressionTree &) = delete;

    void fit(const Dataset &train) override;
    double predict(std::span<const double> row) const override;
    std::string name() const override { return "RegressionTree"; }

    std::unique_ptr<Regressor>
    clone() const override
    {
        return std::make_unique<RegressionTree>(options_);
    }

    /** Number of leaves after pruning. */
    std::size_t numLeaves() const;

  private:
    RegressionTreeOptions options_;
    std::unique_ptr<TreeNode> root_;
};

} // namespace mtperf

#endif // MTPERF_ML_TREE_REGRESSION_TREE_H_
