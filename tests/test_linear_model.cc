/**
 * @file
 * Tests for LinearModel, its fitter and the LinearRegression baseline.
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/linear/linear_model.h"

namespace mtperf {
namespace {

/** y = 2 x1 - 3 x2 + 1 with optional noise; x3 is pure noise. */
Dataset
plantedDataset(std::size_t n, double noise_sd, std::uint64_t seed = 1)
{
    Dataset ds(Schema(std::vector<std::string>{"x1", "x2", "x3"}, "y"));
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const double x1 = rng.uniform(-2, 2);
        const double x2 = rng.uniform(-2, 2);
        const double x3 = rng.uniform(-2, 2);
        const double y = 2.0 * x1 - 3.0 * x2 + 1.0 +
                         rng.normal(0.0, noise_sd);
        ds.addRow(std::vector<double>{x1, x2, x3}, y);
    }
    return ds;
}

std::vector<std::size_t>
allRows(const Dataset &ds)
{
    std::vector<std::size_t> rows(ds.size());
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
}

/** Least squares over all rows of @p ds on @p attrs. */
LinearModel
fitOn(const Dataset &ds, std::vector<std::size_t> attrs)
{
    return LinearModelFitter(ds, allRows(ds), std::move(attrs)).fit();
}

/**
 * Residual orthogonality X^T (y - X b) = 0 over @p m's terms and the
 * intercept: the optimality condition of least squares, independent of
 * how the solution was computed.
 */
void
expectNormalEquationsHold(const Dataset &ds, const LinearModel &m)
{
    std::vector<double> dots(m.terms().size() + 1, 0.0);
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const double resid = ds.target(r) - m.predict(ds.row(r));
        for (std::size_t j = 0; j < m.terms().size(); ++j)
            dots[j] += ds.value(r, m.terms()[j].attr) * resid;
        dots.back() += resid;
    }
    for (double dot : dots)
        EXPECT_NEAR(dot, 0.0, 1e-9);
}

TEST(LinearModel, ConstantModel)
{
    const auto m = LinearModel::constant(2.5);
    EXPECT_DOUBLE_EQ(m.intercept(), 2.5);
    EXPECT_TRUE(m.terms().empty());
    EXPECT_DOUBLE_EQ(m.predict(std::vector<double>{1.0, 2.0}), 2.5);
    EXPECT_EQ(m.numParameters(), 1u);
}

TEST(LinearModel, FitRecoversPlantedCoefficients)
{
    const Dataset ds = plantedDataset(300, 0.0);
    const auto m = fitOn(ds, {0, 1, 2});
    EXPECT_NEAR(m.coefficient(0), 2.0, 1e-8);
    EXPECT_NEAR(m.coefficient(1), -3.0, 1e-8);
    EXPECT_NEAR(m.coefficient(2), 0.0, 1e-8);
    EXPECT_NEAR(m.intercept(), 1.0, 1e-8);
}

TEST(LinearModel, FitWithAttributeSubset)
{
    const Dataset ds = plantedDataset(300, 0.0);
    const auto m = fitOn(ds, {1});
    EXPECT_EQ(m.terms().size(), 1u);
    EXPECT_EQ(m.terms()[0].attr, 1u);
    EXPECT_NEAR(m.coefficient(1), -3.0, 0.3);
    EXPECT_DOUBLE_EQ(m.coefficient(0), 0.0);
}

TEST(LinearModel, EmptyAttrsFitsMean)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    ds.addRow(std::vector<double>{0.0}, 2.0);
    ds.addRow(std::vector<double>{1.0}, 4.0);
    const auto m = fitOn(ds, {});
    EXPECT_DOUBLE_EQ(m.intercept(), 3.0);
}

TEST(LinearModel, MeanAbsoluteError)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    ds.addRow(std::vector<double>{0.0}, 1.0);
    ds.addRow(std::vector<double>{0.0}, 3.0);
    const auto m = LinearModel::constant(2.0);
    const auto rows = allRows(ds);
    EXPECT_DOUBLE_EQ(m.meanAbsoluteError(ds, rows), 1.0);
}

TEST(LinearModel, CompensatedErrorExceedsRawError)
{
    const Dataset ds = plantedDataset(50, 0.5);
    const auto m = fitOn(ds, {0, 1, 2});
    const double mae = m.meanAbsoluteError(ds, allRows(ds));
    EXPECT_GT(compensatedError(mae, ds.size(), m.numParameters()), mae);
    // 50 instances against 4 parameters: (50 + 4) / (50 - 4) x MAE.
    EXPECT_DOUBLE_EQ(compensatedError(2.0, 50, 4), 2.0 * 54.0 / 46.0);
}

TEST(LinearModel, CompensatedErrorInfiniteWhenOverParameterized)
{
    // Two rows against three parameters (two terms + intercept).
    EXPECT_TRUE(std::isinf(compensatedError(0.5, 2, 3)));
    EXPECT_TRUE(std::isinf(compensatedError(0.5, 3, 3)));
    EXPECT_FALSE(std::isinf(compensatedError(0.5, 4, 3)));
}

TEST(LinearModel, SimplifyDropsNoiseTerm)
{
    const Dataset ds = plantedDataset(200, 0.3);
    LinearModelFitter fitter(ds, allRows(ds), {0, 1, 2});
    auto m = fitter.fit();
    fitter.simplify(m);
    // The pure-noise attribute x3 should have been eliminated; the
    // real predictors should survive.
    EXPECT_DOUBLE_EQ(m.coefficient(2), 0.0);
    EXPECT_NE(m.coefficient(0), 0.0);
    EXPECT_NE(m.coefficient(1), 0.0);
}

TEST(LinearModel, SimplifyKeepsPerfectFitIntact)
{
    const Dataset ds = plantedDataset(200, 0.0);
    const auto rows = allRows(ds);
    LinearModelFitter fitter(ds, rows, {0, 1});
    auto m = fitter.fit();
    const double before = m.meanAbsoluteError(ds, rows);
    fitter.simplify(m);
    EXPECT_EQ(m.terms().size(), 2u);
    EXPECT_NEAR(m.meanAbsoluteError(ds, rows), before, 1e-9);
}

TEST(LinearModel, ToStringFormat)
{
    LinearModel m = LinearModel::constant(0.52);
    const Schema schema(std::vector<std::string>{"ItlbM", "L1IM"}, "CPI");
    EXPECT_EQ(m.toString(schema, 2), "CPI = 0.52");

    Dataset ds(schema);
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        ds.addRow(std::vector<double>{a, b}, 139.91 * a - 6.69 * b + 0.52);
    }
    const std::string text = fitOn(ds, {0, 1}).toString(schema, 2);
    EXPECT_EQ(text, "CPI = 0.52 + 139.91 * ItlbM - 6.69 * L1IM");
}

TEST(LinearModel, BlendWithAveragesCoefficients)
{
    LinearModel a = LinearModel::constant(1.0);
    LinearModel b = LinearModel::constant(3.0);
    // n = k means an even blend.
    a.blendWith(b, 15.0, 15.0);
    EXPECT_DOUBLE_EQ(a.intercept(), 2.0);
}

TEST(LinearModel, BlendWithMergesTerms)
{
    Dataset ds(Schema(std::vector<std::string>{"u", "v"}, "y"));
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        const double u = rng.uniform(), v = rng.uniform();
        ds.addRow(std::vector<double>{u, v}, 2 * u + 4 * v);
    }
    auto mu = fitOn(ds, {0});
    const auto mv = fitOn(ds, {1});
    mu.blendWith(mv, 10.0, 30.0); // weights 0.25 / 0.75
    // mu has a u-term scaled by 0.25 and gains v scaled by 0.75.
    EXPECT_NE(mu.coefficient(0), 0.0);
    EXPECT_NE(mu.coefficient(1), 0.0);
    // Prediction equals the weighted blend of the two models.
    const std::vector<double> x{0.3, 0.7};
    const auto mu_fresh = fitOn(ds, {0});
    EXPECT_NEAR(mu.predict(x),
                0.25 * mu_fresh.predict(x) + 0.75 * mv.predict(x),
                1e-12);
}

TEST(LinearRegression, FitsAndPredicts)
{
    const Dataset ds = plantedDataset(200, 0.0);
    LinearRegression lr;
    lr.fit(ds);
    EXPECT_EQ(lr.name(), "LinearRegression");
    EXPECT_NEAR(lr.predict(std::vector<double>{1.0, 1.0, 0.0}), 0.0,
                1e-6);
    EXPECT_NEAR(lr.predict(std::vector<double>{0.0, 0.0, 0.0}), 1.0,
                1e-6);
}

TEST(LinearRegression, SimplifyingVariantDropsNoise)
{
    const Dataset ds = plantedDataset(300, 0.2);
    LinearRegression lr(/*simplify=*/true);
    lr.fit(ds);
    EXPECT_DOUBLE_EQ(lr.model().coefficient(2), 0.0);
}

TEST(LinearRegression, EmptyTrainingThrows)
{
    Dataset ds(Schema(std::vector<std::string>{"x"}, "y"));
    LinearRegression lr;
    EXPECT_THROW(lr.fit(ds), FatalError);
}

TEST(LinearModelFitter, AgreesWithDirectFit)
{
    // The fitter on a row subset and an attribute subset must be the
    // least-squares solution over exactly those rows and attributes:
    // residuals orthogonal to every term and the intercept, and the
    // same bits as a GramSystem folded directly from those rows.
    const Dataset ds = plantedDataset(300, 0.2);
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < ds.size(); r += 2)
        rows.push_back(r);
    const std::vector<std::size_t> attrs{0, 2};

    const LinearModel m = LinearModelFitter(ds, rows, attrs).fit();
    ASSERT_EQ(m.terms().size(), attrs.size());
    expectNormalEquationsHold(ds.subset(rows), m);

    GramSystem direct(attrs.size());
    for (std::size_t r : rows) {
        const double vals[2] = {ds.value(r, 0), ds.value(r, 2)};
        direct.addRow(vals, ds.target(r));
    }
    const std::vector<std::size_t> both{0, 1};
    const auto x = direct.solveSubset(both);
    EXPECT_EQ(m.coefficient(0), x[0]);
    EXPECT_EQ(m.coefficient(2), x[1]);
    EXPECT_EQ(m.intercept(), x[2]);
}

TEST(LinearModelFitter, MaeMatchesModelEvaluationBitwise)
{
    const Dataset ds = plantedDataset(200, 0.3);
    std::vector<std::size_t> rows(ds.size());
    std::iota(rows.begin(), rows.end(), 0);
    LinearModelFitter fitter(ds, rows, {0, 1, 2});
    const LinearModel m = fitter.fit();

    // The fitter's column-major evaluation is arranged to apply the
    // same additions in the same order as LinearModel::predict, so
    // cached MAEs are interchangeable with fresh ones.
    EXPECT_EQ(fitter.meanAbsoluteError(m), m.meanAbsoluteError(ds, rows));
}

TEST(LinearModelFitter, SimplifyDropsPlantedNoiseTerm)
{
    // x3 carries no signal; greedy elimination under the compensated
    // error must drop it, and the survivors must be refit — the least-
    // squares solution over the kept terms, not the full fit's
    // coefficients with one term deleted.
    const Dataset ds = plantedDataset(300, 0.2);
    LinearModelFitter fitter(ds, allRows(ds), {0, 1, 2});
    LinearModel m = fitter.fit();
    fitter.simplify(m);
    ASSERT_EQ(m.terms().size(), 2u);
    EXPECT_DOUBLE_EQ(m.coefficient(2), 0.0);
    expectNormalEquationsHold(ds, m);
}

TEST(LinearModelFitter, EmptyAttributeSetFitsTheMean)
{
    const Dataset ds = plantedDataset(100, 0.5);
    std::vector<std::size_t> rows(ds.size());
    std::iota(rows.begin(), rows.end(), 0);
    LinearModelFitter fitter(ds, rows, {});
    const LinearModel m = fitter.fit();
    // Exactly the row-order mean, not a 1x1 Cholesky solve.
    double acc = 0.0;
    for (std::size_t r : rows)
        acc += ds.target(r);
    EXPECT_EQ(m.intercept(), acc / static_cast<double>(rows.size()));
    EXPECT_TRUE(m.terms().empty());
}

} // namespace
} // namespace mtperf
