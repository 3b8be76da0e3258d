#include "math/least_squares.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mtperf {

namespace {

/** Ridge penalty of the rank-deficient fallback, before escalation. */
constexpr double kRidge = 1e-8;

/**
 * Cholesky solve of the SPD system s x = rhs; returns false when a
 * pivot falls to @p tol or below (tol = 0 is the plain SPD test; a
 * positive tol is a rank test).
 */
bool
choleskySolve(Matrix s, std::vector<double> rhs, std::vector<double> &x,
              double tol = 0.0)
{
    const std::size_t n = s.rows();
    for (std::size_t j = 0; j < n; ++j) {
        double d = s(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= s(j, k) * s(j, k);
        if (d <= tol)
            return false;
        const double l = std::sqrt(d);
        s(j, j) = l;
        for (std::size_t i = j + 1; i < n; ++i) {
            double v = s(i, j);
            for (std::size_t k = 0; k < j; ++k)
                v -= s(i, k) * s(j, k);
            s(i, j) = v / l;
        }
    }
    // Forward substitution L y = rhs.
    for (std::size_t i = 0; i < n; ++i) {
        double acc = rhs[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= s(i, k) * rhs[k];
        rhs[i] = acc / s(i, i);
    }
    // Back substitution L^T x = y.
    x.assign(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = rhs[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= s(k, ii) * x[k];
        x[ii] = acc / s(ii, ii);
    }
    return true;
}

} // namespace

GramSystem::GramSystem(std::size_t features)
    : features_(features),
      xtx_(features + 1, features + 1),
      xty_(features + 1, 0.0)
{
}

void
GramSystem::addRow(const double *vals, double y)
{
    // Upper triangle only; solveSubset mirrors on extraction. The
    // intercept column of ones lives at index features_.
    const std::size_t k = features_;
    for (std::size_t i = 0; i < k; ++i) {
        const double vi = vals[i];
        xty_[i] += vi * y;
        double *row = &xtx_(i, 0);
        for (std::size_t j = i; j < k; ++j)
            row[j] += vi * vals[j];
        row[k] += vi;
    }
    xtx_(k, k) += 1.0;
    xty_[k] += y;
    ++rows_;
}

std::vector<double>
GramSystem::solveSubset(std::span<const std::size_t> subset) const
{
    const std::size_t s = subset.size() + 1; // chosen features + intercept
    Matrix sm(s, s);
    std::vector<double> rhs(s, 0.0);
    auto column = [this, &subset, s](std::size_t i) {
        if (i + 1 == s)
            return features_;
        mtperf_assert(subset[i] < features_,
                      "Gram subset index out of range");
        return subset[i];
    };
    for (std::size_t i = 0; i < s; ++i) {
        const std::size_t ci = column(i);
        rhs[i] = xty_[ci];
        for (std::size_t j = 0; j < s; ++j) {
            const std::size_t cj = column(j);
            sm(i, j) = xtx_(std::min(ci, cj), std::max(ci, cj));
        }
    }

    std::vector<double> x;
    if (rows_ >= s) {
        // Unregularized attempt, with a pivot tolerance relative to
        // the largest diagonal entry as the rank test.
        double max_diag = 0.0;
        for (std::size_t i = 0; i < s; ++i)
            max_diag = std::max(max_diag, sm(i, i));
        const double tol = 1e-12 * std::max(1.0, max_diag);
        if (choleskySolve(sm, rhs, x, tol))
            return x;
    }

    // Underdetermined or rank-deficient: ridge, escalated until the
    // penalized system factors (a tiny ridge can still be numerically
    // non-SPD for wildly scaled inputs).
    for (std::size_t i = 0; i < s; ++i)
        sm(i, i) += kRidge;
    double lambda = kRidge;
    for (int attempt = 0; attempt < 30; ++attempt) {
        if (choleskySolve(sm, rhs, x))
            return x;
        for (std::size_t i = 0; i < s; ++i)
            sm(i, i) += lambda * 9.0;
        lambda *= 10.0;
    }
    mtperf_panic("Gram subset solve failed to converge to an SPD system");
}

} // namespace mtperf
