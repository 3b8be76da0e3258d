/**
 * @file
 * Tests for the Gram/Cholesky least-squares solver.
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/least_squares.h"

namespace mtperf {
namespace {

/** Fold row-major feature rows @p x and targets @p y into a system. */
GramSystem
gramOf(const std::vector<std::vector<double>> &x,
       const std::vector<double> &y)
{
    GramSystem gram(x.front().size());
    for (std::size_t i = 0; i < x.size(); ++i)
        gram.addRow(x[i].data(), y[i]);
    return gram;
}

std::vector<std::size_t>
allFeatures(const GramSystem &gram)
{
    std::vector<std::size_t> subset(gram.features());
    std::iota(subset.begin(), subset.end(), 0);
    return subset;
}

TEST(LeastSquares, SolvesSquareSystemExactly)
{
    // Three rows, two features plus the intercept: one exact solution,
    // y = 1 x1 + 3 x2 + 0.5.
    const auto gram =
        gramOf({{2, 1}, {1, 3}, {1, 1}}, {5.5, 10.5, 4.5});
    const auto x = gram.solveSubset(allFeatures(gram));
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
    EXPECT_NEAR(x[2], 0.5, 1e-9);
}

TEST(LeastSquares, RecoversPlantedCoefficients)
{
    // y = 3 x1 - 2 x2 + 0.5, exactly.
    Rng rng(99);
    GramSystem gram(2);
    for (std::size_t i = 0; i < 200; ++i) {
        const double row[2] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        gram.addRow(row, 3.0 * row[0] - 2.0 * row[1] + 0.5);
    }
    const auto x = gram.solveSubset(allFeatures(gram));
    EXPECT_NEAR(x[0], 3.0, 1e-8);
    EXPECT_NEAR(x[1], -2.0, 1e-8);
    EXPECT_NEAR(x[2], 0.5, 1e-8);
}

TEST(LeastSquares, ResidualOrthogonalToColumns)
{
    // The defining property of the LS solution, whatever the solver:
    // X^T (y - X b) = 0 over the chosen columns and the intercept.
    Rng rng(7);
    std::vector<std::vector<double>> rows(50, std::vector<double>(4));
    std::vector<double> y(50);
    for (std::size_t i = 0; i < 50; ++i) {
        for (double &v : rows[i])
            v = rng.normal();
        y[i] = rng.normal();
    }
    const auto gram = gramOf(rows, y);
    for (const std::vector<std::size_t> &subset :
         {std::vector<std::size_t>{0, 1, 2, 3},
          std::vector<std::size_t>{1, 3}}) {
        const auto x = gram.solveSubset(subset);
        std::vector<double> dots(subset.size() + 1, 0.0);
        for (std::size_t i = 0; i < 50; ++i) {
            double fitted = x[subset.size()];
            for (std::size_t j = 0; j < subset.size(); ++j)
                fitted += x[j] * rows[i][subset[j]];
            const double r = y[i] - fitted;
            for (std::size_t j = 0; j < subset.size(); ++j)
                dots[j] += rows[i][subset[j]] * r;
            dots[subset.size()] += r;
        }
        for (double dot : dots)
            EXPECT_NEAR(dot, 0.0, 1e-10);
    }
}

TEST(LeastSquares, RankDeficientFallsBackToRidge)
{
    // The second column is an exact copy of the first.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (std::size_t i = 0; i < 10; ++i) {
        const auto v = static_cast<double>(i);
        rows.push_back({v, v});
        y.push_back(2.0 * v);
    }
    const auto gram = gramOf(rows, y);
    const auto x = gram.solveSubset(allFeatures(gram));
    // Ridge splits the weight across the duplicated columns; the
    // prediction is still right.
    EXPECT_NEAR(x[0], 1.0, 1e-6);
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-6);
    EXPECT_NEAR(x[2], 0.0, 1e-6);
}

TEST(LeastSquares, ZeroColumnFallsBackToRidge)
{
    // Column 1 stays all-zero, as an event that never fires does.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (std::size_t i = 0; i < 5; ++i) {
        const auto v = static_cast<double>(i);
        rows.push_back({v, 0.0});
        y.push_back(2.0 * v + 1.0);
    }
    const auto gram = gramOf(rows, y);
    const auto x = gram.solveSubset(allFeatures(gram));
    EXPECT_NEAR(x[0], 2.0, 1e-6);
    EXPECT_EQ(x[1], 0.0);
    EXPECT_NEAR(x[2], 1.0, 1e-6);
}

TEST(LeastSquares, UnderdeterminedUsesRidge)
{
    // Two rows cannot pin down three coefficients and an intercept;
    // ridge picks one solution, and it must still fit both rows.
    const std::vector<std::vector<double>> rows = {{1, 2, 1}, {1, 1, 1}};
    const std::vector<double> y = {1.0, 2.0};
    const auto gram = gramOf(rows, y);
    const auto x = gram.solveSubset(allFeatures(gram));
    ASSERT_EQ(x.size(), 4u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double fitted = x[3];
        for (std::size_t j = 0; j < 3; ++j) {
            ASSERT_TRUE(std::isfinite(x[j]));
            fitted += x[j] * rows[i][j];
        }
        EXPECT_NEAR(fitted, y[i], 1e-6);
    }
}

TEST(LeastSquares, EmptySubsetFitsTheMean)
{
    const auto gram = gramOf({{5}, {-1}, {2}}, {1, 2, 6});
    const auto x = gram.solveSubset({});
    ASSERT_EQ(x.size(), 1u);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
}

TEST(LeastSquares, BadlyScaledColumnsStillSolve)
{
    // Columns five orders of magnitude apart, wider than the Table-I
    // ratio columns span; six orders is where the rank test starts to
    // read the small column as missing (math/least_squares.h).
    Rng rng(13);
    GramSystem gram(2);
    for (std::size_t i = 0; i < 300; ++i) {
        const double row[2] = {rng.uniform() * 1e-3, rng.uniform() * 1e2};
        gram.addRow(row, 2e3 * row[0] + 3e-2 * row[1] + 1.0);
    }
    const auto x = gram.solveSubset(allFeatures(gram));
    EXPECT_NEAR(x[0], 2e3, 2e3 * 1e-10);
    EXPECT_NEAR(x[1], 3e-2, 3e-2 * 1e-10);
    EXPECT_NEAR(x[2], 1.0, 1e-10);
}

TEST(LeastSquaresDeathTest, SubsetIndexOutOfRangeAborts)
{
    const auto gram = gramOf({{1, 2}, {3, 4}, {5, 7}}, {1, 2, 3});
    const std::vector<std::size_t> subset = {0, 2};
    EXPECT_DEATH((void)gram.solveSubset(subset), "out of range");
}

} // namespace
} // namespace mtperf
