/**
 * @file
 * Linear least squares from sufficient statistics.
 *
 * Every linear model in the library — M5' leaf and interior models,
 * the M5Rules default rule and the global linear baseline — solves
 * min_x ||A x - b||_2 for a tall skinny A (hundreds to thousands of
 * rows, ~20 columns plus an intercept). GramSystem folds the rows into
 * the normal equations A^T A x = A^T b once and solves them by
 * Cholesky, so refitting over any subset of the columns never touches
 * the rows again.
 *
 * Forming A^T A squares the condition number, and the rank test reads
 * a Cholesky pivot below 1e-12 of the largest diagonal entry as zero.
 * The path therefore assumes column RMS values (the intercept's is 1)
 * within six orders of magnitude of each other. Inside that spread the
 * coefficients come out to ~1e-14 relative error; from six orders on,
 * the smallest column starts to read as rank-deficient and the ridge
 * fallback costs digits (relative error ~4e-3 at seven orders). The
 * Table-I ratio columns span about three orders
 * (RMS 5.1e-4 for LdBlStd to 0.44 for InstOther).
 */

#ifndef MTPERF_MATH_LEAST_SQUARES_H_
#define MTPERF_MATH_LEAST_SQUARES_H_

#include <span>
#include <vector>

#include "math/matrix.h"

namespace mtperf {

/**
 * Accumulated sufficient statistics for least-squares fits over one
 * fixed row set: the Gram matrix X^T X and moment vector X^T y over a
 * feature superset plus an implicit trailing intercept column of
 * ones. Once the rows have been folded in (one pass, O(n k^2 / 2)),
 * a fit over *any subset* of the features solves a (s+1) x (s+1)
 * principal-submatrix system in O(s^3) without touching the rows
 * again — which is what makes M5's greedy term elimination cheap.
 *
 * An unregularized Cholesky solve with a relative rank test is tried
 * first. A rank-deficient subset (an event that never fires inside a
 * leaf, two identical counters) or an underdetermined one (fewer rows
 * than unknowns) falls back to ridge: a 1e-8 penalty on the diagonal,
 * escalated tenfold until the system factors.
 */
class GramSystem
{
  public:
    /** @param features number of feature columns (intercept excluded). */
    explicit GramSystem(std::size_t features);

    /** Fold in one row: @p vals has features() entries, @p y a target. */
    void addRow(const double *vals, double y);

    std::size_t features() const { return features_; }
    std::size_t rowCount() const { return rows_; }

    /**
     * Solve min_x ||X_S x - y||_2 over the feature subset @p subset
     * (indices into the feature columns, strictly increasing).
     * @return coefficients for the subset features in order, with the
     *         intercept last (subset.size() + 1 entries).
     */
    std::vector<double>
    solveSubset(std::span<const std::size_t> subset) const;

  private:
    std::size_t features_;
    std::size_t rows_ = 0;
    Matrix xtx_;              //!< (features+1)^2, intercept last
    std::vector<double> xty_; //!< features+1 entries
};

} // namespace mtperf

#endif // MTPERF_MATH_LEAST_SQUARES_H_
