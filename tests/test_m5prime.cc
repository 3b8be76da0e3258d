/**
 * @file
 * Tests for the M5' model-tree learner.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/eval/metrics.h"
#include "ml/tree/m5prime.h"

namespace mtperf {
namespace {

/**
 * A piecewise-linear ground truth with a sharp regime change at
 * x0 = 0.5:
 *   x0 <= 0.5:  y =  1 + 2 x1
 *   x0 >  0.5:  y = 10 - 3 x1
 * x2 is irrelevant noise input.
 */
Dataset
piecewiseDataset(std::size_t n, double noise_sd, std::uint64_t seed = 11)
{
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1", "x2"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        const double x2 = rng.uniform();
        const double y = (x0 <= 0.5 ? 1.0 + 2.0 * x1 : 10.0 - 3.0 * x1) +
                         rng.normal(0.0, noise_sd);
        ds.addRow(std::vector<double>{x0, x1, x2}, y);
    }
    return ds;
}

M5Options
smallTreeOptions()
{
    M5Options o;
    o.minInstances = 25;
    return o;
}

TEST(M5Prime, RecoversPiecewiseStructure)
{
    const Dataset ds = piecewiseDataset(1000, 0.0);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);

    ASSERT_TRUE(tree.rootSplitAttribute().has_value());
    EXPECT_EQ(*tree.rootSplitAttribute(), 0u);

    const auto sites = tree.splitSites();
    ASSERT_FALSE(sites.empty());
    EXPECT_NEAR(sites[0].value, 0.5, 0.05);
}

TEST(M5Prime, RecoversLeafModels)
{
    const Dataset ds = piecewiseDataset(1000, 0.0);
    M5Options o = smallTreeOptions();
    o.smooth = false; // raw leaf models for exact coefficient checks
    M5Prime tree(o);
    tree.fit(ds);

    // Left regime: intercept 1, slope +2 on x1.
    const std::vector<double> left_row{0.2, 0.0, 0.5};
    const std::size_t left_leaf = tree.leafIndexFor(left_row);
    const auto &left_model = tree.leafModel(left_leaf);
    EXPECT_NEAR(left_model.predict(left_row), 1.0, 0.05);
    EXPECT_NEAR(left_model.coefficient(1), 2.0, 0.1);

    const std::vector<double> right_row{0.8, 1.0, 0.5};
    const std::size_t right_leaf = tree.leafIndexFor(right_row);
    EXPECT_NE(left_leaf, right_leaf);
    EXPECT_NEAR(tree.leafModel(right_leaf).predict(right_row), 7.0,
                0.05);
}

TEST(M5Prime, AccurateOnHeldOutData)
{
    const Dataset train = piecewiseDataset(2000, 0.1, 1);
    const Dataset test = piecewiseDataset(500, 0.1, 2);
    M5Prime tree(smallTreeOptions());
    tree.fit(train);
    const auto metrics =
        computeMetrics(test.targets(), tree.predictAll(test));
    EXPECT_GT(metrics.correlation, 0.99);
    EXPECT_LT(metrics.rae, 0.10);
}

TEST(M5Prime, MinInstancesRespectedInEveryLeaf)
{
    const Dataset ds = piecewiseDataset(800, 0.3);
    M5Options o;
    o.minInstances = 60;
    M5Prime tree(o);
    tree.fit(ds);
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf)
        EXPECT_GE(tree.leafInfo(leaf).count, 60u);
}

TEST(M5Prime, ConstantTargetGivesSingleLeaf)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        ds.addRow(std::vector<double>{rng.uniform()}, 3.0);
    M5Prime tree;
    tree.fit(ds);
    EXPECT_EQ(tree.numLeaves(), 1u);
    EXPECT_FALSE(tree.rootSplitAttribute().has_value());
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.5}), 3.0);
}

TEST(M5Prime, ConstantAttributesGiveSingleLeaf)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        ds.addRow(std::vector<double>{1.0}, rng.uniform());
    M5Prime tree;
    tree.fit(ds);
    EXPECT_EQ(tree.numLeaves(), 1u);
}

TEST(M5Prime, PruningNeverIncreasesLeafCount)
{
    const Dataset ds = piecewiseDataset(600, 0.8);
    M5Options pruned = smallTreeOptions();
    M5Options unpruned = smallTreeOptions();
    unpruned.prune = false;
    M5Prime a(pruned), b(unpruned);
    a.fit(ds);
    b.fit(ds);
    EXPECT_LE(a.numLeaves(), b.numLeaves());
}

TEST(M5Prime, PruningCollapsesMostOfPureNoise)
{
    // No structure at all: greedy split search still finds spurious
    // variance reductions (M5-style pessimistic pruning cannot undo
    // all of them), but pruning must remove a clear majority of the
    // grown structure.
    Dataset ds(Schema(std::vector<std::string>{"x0", "x1"}, "y"));
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        ds.addRow(std::vector<double>{rng.uniform(), rng.uniform()},
                  rng.normal());
    }
    M5Options pruned, unpruned;
    pruned.minInstances = unpruned.minInstances = 10;
    unpruned.prune = false;
    M5Prime a(pruned), b(unpruned);
    a.fit(ds);
    b.fit(ds);
    EXPECT_LT(a.numLeaves(), b.numLeaves() / 2);
}

TEST(M5Prime, SmoothingKeepsAccuracy)
{
    const Dataset train = piecewiseDataset(1500, 0.2, 3);
    const Dataset test = piecewiseDataset(400, 0.2, 4);
    M5Options smooth_on = smallTreeOptions();
    M5Options smooth_off = smallTreeOptions();
    smooth_off.smooth = false;
    M5Prime a(smooth_on), b(smooth_off);
    a.fit(train);
    b.fit(train);
    const auto ma = computeMetrics(test.targets(), a.predictAll(test));
    const auto mb = computeMetrics(test.targets(), b.predictAll(test));
    EXPECT_GT(ma.correlation, 0.98);
    EXPECT_GT(mb.correlation, 0.98);
    // Smoothing shifts predictions a little but not wildly.
    EXPECT_LT(std::abs(ma.mae - mb.mae), 0.5);
}

TEST(M5Prime, SmoothedPredictionMatchesCompiledLeafModel)
{
    // predict() must agree exactly with evaluating the (smoothed)
    // model of the leaf the row routes to.
    const Dataset ds = piecewiseDataset(900, 0.3);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    Rng rng(8);
    for (int i = 0; i < 50; ++i) {
        const std::vector<double> row{rng.uniform(), rng.uniform(),
                                      rng.uniform()};
        const std::size_t leaf = tree.leafIndexFor(row);
        EXPECT_DOUBLE_EQ(tree.predict(row),
                         tree.leafModel(leaf).predict(row));
    }
}

TEST(M5Prime, DeterministicAcrossRuns)
{
    const Dataset ds = piecewiseDataset(700, 0.2);
    M5Prime a(smallTreeOptions()), b(smallTreeOptions());
    a.fit(ds);
    b.fit(ds);
    EXPECT_EQ(a.toString(), b.toString());
}

TEST(M5Prime, LeafInfoPathsRouteCorrectly)
{
    const Dataset ds = piecewiseDataset(1000, 0.3);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    // Every row's leaf path must be consistent with the row's values.
    for (std::size_t r = 0; r < 200; ++r) {
        const auto row = ds.row(r);
        const auto &info = tree.leafInfo(tree.leafIndexFor(row));
        for (const auto &step : info.path) {
            const bool right = row[step.attr] > step.value;
            EXPECT_EQ(right, step.goesRight);
        }
    }
}

TEST(M5Prime, LeafFractionsSumToOne)
{
    const Dataset ds = piecewiseDataset(1000, 0.3);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    double total_fraction = 0.0;
    std::size_t total_count = 0;
    for (std::size_t leaf = 0; leaf < tree.numLeaves(); ++leaf) {
        total_fraction += tree.leafInfo(leaf).trainFraction;
        total_count += tree.leafInfo(leaf).count;
    }
    EXPECT_NEAR(total_fraction, 1.0, 1e-9);
    EXPECT_EQ(total_count, ds.size());
}

TEST(M5Prime, NodeCountInvariant)
{
    const Dataset ds = piecewiseDataset(1000, 0.3);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    // A binary tree has exactly leaves - 1 interior nodes.
    EXPECT_EQ(tree.numNodes(), 2 * tree.numLeaves() - 1);
    EXPECT_EQ(tree.splitSites().size(), tree.numLeaves() - 1);
}

TEST(M5Prime, MaxDepthRespected)
{
    const Dataset ds = piecewiseDataset(2000, 0.05);
    M5Options o;
    o.minInstances = 10;
    o.maxDepth = 2;
    M5Prime tree(o);
    tree.fit(ds);
    EXPECT_LE(tree.depth(), 2u);
    EXPECT_LE(tree.numLeaves(), 4u);
}

TEST(M5Prime, SplitAttributesExcludesNoiseInput)
{
    const Dataset ds = piecewiseDataset(2000, 0.05);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    for (std::size_t attr : tree.splitAttributes())
        EXPECT_NE(attr, 2u) << "tree split on the pure-noise attribute";
}

TEST(M5Prime, ToStringListsAllModels)
{
    const Dataset ds = piecewiseDataset(1000, 0.1);
    M5Prime tree(smallTreeOptions());
    tree.fit(ds);
    const std::string text = tree.toString();
    EXPECT_NE(text.find("model tree (M5')"), std::string::npos);
    EXPECT_NE(text.find("Number of leaves: "), std::string::npos);
    for (std::size_t leaf = 1; leaf <= tree.numLeaves(); ++leaf) {
        EXPECT_NE(text.find("LM" + std::to_string(leaf)),
                  std::string::npos);
    }
}

TEST(M5Prime, SingleLeafToString)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    for (int i = 0; i < 10; ++i)
        ds.addRow(std::vector<double>{double(i)}, 1.0);
    M5Prime tree;
    tree.fit(ds);
    const std::string text = tree.toString();
    EXPECT_NE(text.find("LM1 (10/100.0%)"), std::string::npos);
}

TEST(M5Prime, EmptyTrainingThrows)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    M5Prime tree;
    EXPECT_THROW(tree.fit(ds), FatalError);
}

TEST(M5Prime, InvalidOptionsThrow)
{
    M5Options bad_min;
    bad_min.minInstances = 0;
    EXPECT_THROW(M5Prime{bad_min}, FatalError);

    M5Options bad_sd;
    bad_sd.sdFraction = -0.1;
    EXPECT_THROW(M5Prime{bad_sd}, FatalError);

    M5Options bad_k;
    bad_k.smoothingK = -1.0;
    EXPECT_THROW(M5Prime{bad_k}, FatalError);

    // Non-finite values fail every ordered comparison, so they need
    // their own rejection.
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bad : {inf, -inf, nan}) {
        M5Options bad_sd_value;
        bad_sd_value.sdFraction = bad;
        EXPECT_THROW(M5Prime{bad_sd_value}, FatalError) << bad;
        M5Options bad_k_value;
        bad_k_value.smoothingK = bad;
        EXPECT_THROW(M5Prime{bad_k_value}, FatalError) << bad;
    }
}

TEST(M5Prime, RefitReplacesPreviousTree)
{
    const Dataset first = piecewiseDataset(500, 0.1, 1);
    Dataset second(Schema(std::vector<std::string>{"x0", "x1", "x2"}, "y"));
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform();
        second.addRow(std::vector<double>{x, 0.0, 0.0}, 5.0 * x);
    }
    M5Prime tree(smallTreeOptions());
    tree.fit(first);
    tree.fit(second);
    EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 0.0, 0.0}), 2.5,
                0.3);
}

/**
 * Figure-1-style check: a four-input piecewise function produces a
 * multi-level tree whose leaves each carry a linear model.
 */
TEST(M5Prime, FigureOneStyleTree)
{
    Dataset ds(Schema(std::vector<std::string>{"X1", "X2", "X3", "X4"}, "Y"));
    Rng rng(12);
    for (int i = 0; i < 3000; ++i) {
        const double x1 = rng.uniform(), x2 = rng.uniform();
        const double x3 = rng.uniform(), x4 = rng.uniform();
        double y;
        if (x1 <= 0.4)
            y = x2 <= 0.5 ? 3.0 * x3 : 5.0 + x4;
        else
            y = x3 <= 0.3 ? 10.0 - 2.0 * x2 : 14.0 + x1;
        ds.addRow(std::vector<double>{x1, x2, x3, x4},
                  y + rng.normal(0.0, 0.05));
    }
    M5Options o;
    o.minInstances = 50;
    M5Prime tree(o);
    tree.fit(ds);
    EXPECT_GE(tree.numLeaves(), 4u);
    EXPECT_GE(tree.depth(), 2u);
    ASSERT_TRUE(tree.rootSplitAttribute().has_value());
    // X1's regime change is the largest; it should be the root test.
    EXPECT_EQ(*tree.rootSplitAttribute(), 0u);
}

} // namespace
} // namespace mtperf
