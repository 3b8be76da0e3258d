/**
 * @file
 * Tests for LinearModel, its fitter and the LinearRegression baseline.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/linear/linear_model.h"
#include "obs/metrics.h"

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

/**
 * LinearModelFitter's term elimination as it was before the early
 * out: every candidate's |residual| sum runs over all rows. Gathers
 * the rows and accumulates its own Gram system exactly as the fitter
 * does.
 */
class ReferenceSimplifier
{
  public:
    ReferenceSimplifier(const Dataset &ds, std::span<const std::size_t> rows,
                        std::vector<std::size_t> attrs)
        : attrs_(std::move(attrs)), n_(rows.size()), gram_(attrs_.size())
    {
        const std::size_t k = attrs_.size();
        y_.resize(n_);
        cols_.resize(k * n_);
        resid_.resize(n_);
        std::vector<double> vals(k);
        for (std::size_t i = 0; i < n_; ++i) {
            const auto row = ds.row(rows[i]);
            for (std::size_t j = 0; j < k; ++j) {
                vals[j] = row[attrs_[j]];
                cols_[j * n_ + i] = vals[j];
            }
            y_[i] = ds.target(rows[i]);
            gram_.addRow(vals.data(), y_[i]);
        }
    }

    LinearModel
    fitSubset(std::span<const std::size_t> subset) const
    {
        LinearModel m;
        const auto solution = gram_.solveSubset(subset);
        for (std::size_t j = 0; j < subset.size(); ++j)
            m.addTerm(attrs_[subset[j]], solution[j]);
        m.setIntercept(solution[subset.size()]);
        return m;
    }

    double
    maeOfSubset(const LinearModel &m,
                std::span<const std::size_t> subset) const
    {
        std::fill(resid_.begin(), resid_.end(), m.intercept());
        const auto &terms = m.terms();
        for (std::size_t t = 0; t < terms.size(); ++t) {
            const double coef = terms[t].coef;
            const double *col = cols_.data() + subset[t] * n_;
            for (std::size_t i = 0; i < n_; ++i)
                resid_[i] += coef * col[i];
        }
        double acc = 0.0;
        for (std::size_t i = 0; i < n_; ++i)
            acc += std::abs(resid_[i] - y_[i]);
        return acc / static_cast<double>(n_);
    }

    std::vector<std::size_t>
    subsetOf(const LinearModel &m) const
    {
        std::vector<std::size_t> subset;
        for (const auto &term : m.terms()) {
            const auto it =
                std::lower_bound(attrs_.begin(), attrs_.end(), term.attr);
            subset.push_back(static_cast<std::size_t>(it - attrs_.begin()));
        }
        return subset;
    }

    void
    simplify(LinearModel &m) const
    {
        std::vector<std::size_t> subset = subsetOf(m);
        double best_err = compensatedError(maeOfSubset(m, subset), n_,
                                           m.numParameters());
        while (!subset.empty()) {
            double best_candidate_err = best_err;
            std::size_t best_drop = subset.size();
            LinearModel best_model;
            for (std::size_t drop = 0; drop < subset.size(); ++drop) {
                std::vector<std::size_t> kept;
                for (std::size_t j = 0; j < subset.size(); ++j) {
                    if (j != drop)
                        kept.push_back(subset[j]);
                }
                LinearModel candidate = fitSubset(kept);
                const double err =
                    compensatedError(maeOfSubset(candidate, kept), n_,
                                     candidate.numParameters());
                if (err < best_candidate_err) {
                    best_candidate_err = err;
                    best_drop = drop;
                    best_model = std::move(candidate);
                }
            }
            if (best_drop == subset.size())
                break;
            subset.erase(subset.begin() +
                         static_cast<std::ptrdiff_t>(best_drop));
            m = std::move(best_model);
            best_err = best_candidate_err;
        }
    }

  private:
    std::vector<std::size_t> attrs_;
    std::size_t n_;
    std::vector<double> y_;
    std::vector<double> cols_;
    GramSystem gram_;
    mutable std::vector<double> resid_;
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Six attributes of falling weight: two strong, two weak, one pure
 * noise and one either a copy of the first (the ridge path) or noise;
 * the target is constant when @p constant_target.
 */
Dataset
simplifyDataset(std::size_t n, std::uint64_t seed, bool duplicate_column,
                bool constant_target)
{
    Dataset ds(Schema(
        std::vector<std::string>{"a", "b", "c", "d", "e", "f"}, "y"));
    Rng rng(seed);
    const double weak = rng.uniform(0.0, 0.2);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(6);
        for (double &v : x)
            v = rng.uniform(-1.0, 1.0);
        if (duplicate_column)
            x[5] = x[0];
        const double y = constant_target
                             ? 5.0
                             : 3.0 * x[0] - 2.0 * x[1] + weak * x[2] +
                                   0.5 * weak * x[3] +
                                   rng.normal(0.0, 0.3);
        ds.addRow(x, y);
    }
    return ds;
}

TEST(LinearModelFitter, SimplifyMatchesTheFullSumReferenceBitwise)
{
    obs::Counter &abandoned = obs::counter("linear.simplify_abandoned");
    obs::Counter &candidates = obs::counter("linear.simplify_candidates");
    const std::uint64_t abandoned_before = abandoned.value();
    const std::uint64_t candidates_before = candidates.value();

    int cases = 0;
    for (std::size_t n : {3u, 5u, 7u, 40u, 129u, 700u, 2000u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            for (int shape = 0; shape < 3; ++shape) {
                const Dataset ds =
                    simplifyDataset(n, seed, shape == 1, shape == 2);
                // Every row, and every other row (a node's row subset).
                std::vector<std::size_t> rows = allRows(ds);
                std::vector<std::size_t> odd;
                for (std::size_t r = 1; r < ds.size(); r += 2)
                    odd.push_back(r);
                for (const auto *subset : {&rows, &odd}) {
                    if (subset->empty())
                        continue;
                    const std::vector<std::size_t> attrs{0, 1, 2, 3, 4, 5};
                    LinearModelFitter fitter(ds, *subset, attrs);
                    ReferenceSimplifier reference(ds, *subset, attrs);
                    LinearModel got = fitter.fit();
                    LinearModel want = reference.fitSubset(
                        std::vector<std::size_t>{0, 1, 2, 3, 4, 5});
                    fitter.simplify(got);
                    reference.simplify(want);

                    const std::string label =
                        "n " + std::to_string(n) + " seed " +
                        std::to_string(seed) + " shape " +
                        std::to_string(shape) + " rows " +
                        std::to_string(subset->size());
                    EXPECT_EQ(bits(got.intercept()), bits(want.intercept()))
                        << label;
                    ASSERT_EQ(got.terms().size(), want.terms().size())
                        << label;
                    for (std::size_t t = 0; t < got.terms().size(); ++t) {
                        EXPECT_EQ(got.terms()[t].attr, want.terms()[t].attr)
                            << label;
                        EXPECT_EQ(bits(got.terms()[t].coef),
                                  bits(want.terms()[t].coef))
                            << label;
                    }
                    EXPECT_EQ(bits(fitter.meanAbsoluteError(got)),
                              bits(reference.maeOfSubset(
                                  want, reference.subsetOf(want))))
                        << label;
                    ++cases;
                }
            }
        }
    }
    EXPECT_GT(cases, 100);
    // The early out fired, on a part of the candidates only.
    const std::uint64_t fired = abandoned.value() - abandoned_before;
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, candidates.value() - candidates_before);
}

} // namespace
} // namespace mtperf
