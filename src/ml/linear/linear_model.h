/**
 * @file
 * Multi-variate linear models over dataset attributes.
 *
 * These are the models M5' places at tree nodes: an intercept plus a
 * sparse set of (attribute, coefficient) terms, rendered the way the
 * paper prints them, e.g.
 *
 *   CPI = 0.52 + 139.91 * ItlbM + 2.22 * DtlbL0LdM + 6.69 * L1IM
 *
 * LinearModelFitter is the one way a LinearModel is fitted — M5' node
 * models, the M5Rules default rule and the LinearRegression baseline
 * all go through it: least squares over a row subset (GramSystem, see
 * math/least_squares.h for its numerical assumptions) and M5's greedy
 * term elimination under the pessimistic error compensatedError().
 */

#ifndef MTPERF_ML_LINEAR_LINEAR_MODEL_H_
#define MTPERF_ML_LINEAR_LINEAR_MODEL_H_

#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "math/least_squares.h"
#include "ml/regressor.h"

namespace mtperf {

/** A sparse linear model: target = intercept + sum coef_i * attr_i. */
class LinearModel
{
  public:
    /** One model term. */
    struct Term
    {
        std::size_t attr = 0; //!< attribute index in the schema
        double coef = 0.0;
    };

    /** Constant model predicting @p intercept. */
    static LinearModel constant(double intercept);

    double intercept() const { return intercept_; }
    void setIntercept(double b) { intercept_ = b; }
    const std::vector<Term> &terms() const { return terms_; }

    /**
     * Set the coefficient of @p attr, appending a new term or
     * replacing an existing one (used when deserializing models).
     */
    void addTerm(std::size_t attr, double coef);

    /** Coefficient for @p attr, or 0 when the term is absent. */
    double coefficient(std::size_t attr) const;

    /** Predict for one attribute row. */
    double predict(std::span<const double> row) const;

    /** Mean absolute residual over @p rows of @p ds. */
    double meanAbsoluteError(const Dataset &ds,
                             std::span<const std::size_t> rows) const;

    /** Number of fitted parameters (terms + intercept). */
    std::size_t numParameters() const { return terms_.size() + 1; }

    /**
     * Render as "<target> = b + c1 * A1 + ...". Coefficients are
     * printed with @p digits decimals; negative coefficients render
     * as "- |c| * A".
     */
    std::string toString(const Schema &schema, int digits = 4) const;

    /**
     * Blend with another model over the same schema:
     * this = (n * this + k * other) / (n + k). Used to compile M5
     * smoothing into leaf models.
     */
    void blendWith(const LinearModel &other, double n, double k);

  private:
    double intercept_ = 0.0;
    std::vector<Term> terms_;
};

/**
 * M5's pessimistic error estimate: @p mae scaled by (n+v)/(n-v) for
 * @p v fitted parameters charged against @p n instances. Returns +inf
 * when n <= v, so over-parameterized models always lose pruning
 * comparisons. Every term-elimination and prune decision (M5', CART)
 * goes through this one definition.
 */
double compensatedError(double mae, std::size_t n, std::size_t v);

/**
 * One fitting context: gathers the rows once (targets and the chosen
 * attribute columns, column-major) and accumulates the GramSystem over
 * them, so the base fit and every candidate refit during M5
 * simplification are solved from sufficient statistics in O(k^3)
 * without re-touching the rows. Error evaluation stays exact — MAE is
 * L1 and must visit rows — but runs over the gathered contiguous
 * columns in the same accumulation order as
 * LinearModel::meanAbsoluteError, so the two agree bit-for-bit.
 *
 * One instance serves one (row set, attribute superset) pair; it is
 * cheap enough to build per tree node and not thread-safe.
 */
class LinearModelFitter
{
  public:
    /** @param attrs attribute superset, strictly increasing. */
    LinearModelFitter(const Dataset &ds,
                      std::span<const std::size_t> rows,
                      std::vector<std::size_t> attrs);

    /** OLS over the full attribute superset (Gram-solved). */
    LinearModel fit() const;

    /**
     * M5's model simplification: greedily drop terms while doing so
     * lowers compensatedError(), refitting the survivors from the Gram
     * system after each drop. Trades a slightly larger raw residual
     * for fewer parameters. @p m must have been produced by fit() or a
     * previous simplify() over this fitter.
     */
    void simplify(LinearModel &m) const;

    /** MAE of @p m over the fitter's rows (terms must be in attrs). */
    double meanAbsoluteError(const LinearModel &m) const;

    std::size_t rowCount() const { return n_; }

  private:
    /** Positions in attrs_ of @p m's terms, in term order. */
    std::vector<std::size_t> subsetOf(const LinearModel &m) const;
    LinearModel fitSubset(std::span<const std::size_t> subset) const;
    double maeOfSubset(const LinearModel &m,
                       std::span<const std::size_t> subset) const;

    std::vector<std::size_t> attrs_;
    std::size_t n_;
    std::vector<double> y_;    //!< gathered targets, row order
    std::vector<double> cols_; //!< column-major attrs_ x n_ values
    GramSystem gram_;
    mutable std::vector<double> resid_; //!< prediction scratch
};

/**
 * Global multiple linear regression baseline: a single LinearModel
 * over all attributes, optionally simplified. This is the classical
 * "one formula for the whole workload" approach the paper improves on.
 */
class LinearRegression : public Regressor
{
  public:
    /** @param simplify run M5-style greedy term elimination when true. */
    explicit LinearRegression(bool simplify = false)
        : simplify_(simplify)
    {
    }

    void fit(const Dataset &train) override;
    double predict(std::span<const double> row) const override;
    std::string name() const override { return "LinearRegression"; }

    std::unique_ptr<Regressor>
    clone() const override
    {
        return std::make_unique<LinearRegression>(simplify_);
    }

    /** The fitted model. @pre fit() has been called. */
    const LinearModel &model() const { return model_; }

  private:
    bool simplify_;
    LinearModel model_;
};

} // namespace mtperf

#endif // MTPERF_ML_LINEAR_LINEAR_MODEL_H_
