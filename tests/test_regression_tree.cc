/**
 * @file
 * Tests for the CART-style regression tree baseline.
 */

#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/eval/metrics.h"
#include "ml/tree/regression_tree.h"

namespace mtperf {
namespace {

/** Three-level step function of x0; x1 is noise input. */
Dataset
stepDataset(std::size_t n, double noise_sd, std::uint64_t seed = 21)
{
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        double y = x0 <= 0.3 ? 1.0 : (x0 <= 0.7 ? 5.0 : 9.0);
        ds.addRow(std::vector<double>{x0, x1},
                  y + rng.normal(0.0, noise_sd));
    }
    return ds;
}

TEST(RegressionTree, RecoversStepFunction)
{
    const Dataset ds = stepDataset(1500, 0.0);
    RegressionTreeOptions o;
    o.minInstances = 30;
    RegressionTree tree(o);
    tree.fit(ds);

    EXPECT_NEAR(tree.predict(std::vector<double>{0.1, 0.5}), 1.0, 0.2);
    EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 0.5}), 5.0, 0.2);
    EXPECT_NEAR(tree.predict(std::vector<double>{0.9, 0.5}), 9.0, 0.2);
}

TEST(RegressionTree, HeldOutAccuracy)
{
    const Dataset train = stepDataset(2000, 0.2, 1);
    const Dataset test = stepDataset(500, 0.2, 2);
    RegressionTreeOptions o;
    o.minInstances = 30;
    RegressionTree tree(o);
    tree.fit(train);
    const auto m = computeMetrics(test.targets(), tree.predictAll(test));
    EXPECT_GT(m.correlation, 0.99);
}

TEST(RegressionTree, PiecewiseConstantCannotTrackSlope)
{
    // On a continuous slope the piecewise-constant tree plateaus:
    // nearby inputs inside one leaf get identical predictions.
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform();
        ds.addRow(std::vector<double>{x}, 10.0 * x);
    }
    RegressionTreeOptions o;
    o.minInstances = 100;
    o.prune = false;
    RegressionTree tree(o);
    tree.fit(ds);
    // A fine input sweep yields only as many distinct outputs as the
    // tree has leaves — the telltale plateaus of a constant-leaf tree.
    std::set<double> distinct;
    for (int i = 0; i <= 1000; ++i)
        distinct.insert(tree.predict(std::vector<double>{i / 1000.0}));
    EXPECT_EQ(distinct.size(), tree.numLeaves());
    EXPECT_LE(distinct.size(), 12u);
}

TEST(RegressionTree, MinInstancesLimitsLeaves)
{
    const Dataset ds = stepDataset(300, 0.5);
    RegressionTreeOptions o;
    o.minInstances = 150;
    RegressionTree tree(o);
    tree.fit(ds);
    EXPECT_LE(tree.numLeaves(), 2u);
}

TEST(RegressionTree, PruningCollapsesMostNoise)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(5);
    for (int i = 0; i < 400; ++i)
        ds.addRow(std::vector<double>{rng.uniform()}, rng.normal());
    RegressionTreeOptions pruned, unpruned;
    pruned.minInstances = unpruned.minInstances = 10;
    unpruned.prune = false;
    RegressionTree a(pruned), b(unpruned);
    a.fit(ds);
    b.fit(ds);
    EXPECT_LT(a.numLeaves(), b.numLeaves() / 2);
}

TEST(RegressionTree, MaxDepthRespected)
{
    const Dataset ds = stepDataset(2000, 0.05);
    RegressionTreeOptions o;
    o.minInstances = 10;
    o.maxDepth = 1;
    RegressionTree tree(o);
    tree.fit(ds);
    EXPECT_LE(tree.numLeaves(), 2u);
}

TEST(RegressionTree, ConstantTargetSingleLeaf)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        ds.addRow(std::vector<double>{rng.uniform()}, 2.0);
    RegressionTree tree;
    tree.fit(ds);
    EXPECT_EQ(tree.numLeaves(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.1}), 2.0);
}

TEST(RegressionTree, EmptyTrainingThrows)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    RegressionTree tree;
    EXPECT_THROW(tree.fit(ds), FatalError);
}

TEST(RegressionTree, InvalidOptionsThrow)
{
    RegressionTreeOptions o;
    o.minInstances = 0;
    EXPECT_THROW(RegressionTree{o}, FatalError);

    for (double bad : {-1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        RegressionTreeOptions bad_sd;
        bad_sd.sdFraction = bad;
        EXPECT_THROW(RegressionTree{bad_sd}, FatalError) << bad;
    }
}

} // namespace
} // namespace mtperf
