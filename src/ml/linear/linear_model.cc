#include "ml/linear/linear_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace mtperf {

namespace {

/**
 * Rows per block of a simplify() candidate's residual sum: its early
 * out is checked once per block.
 */
constexpr std::size_t kErrorBlockRows = 128;

} // namespace

LinearModel
LinearModel::constant(double intercept)
{
    LinearModel m;
    m.intercept_ = intercept;
    return m;
}

void
LinearModel::addTerm(std::size_t attr, double coef)
{
    for (auto &term : terms_) {
        if (term.attr == attr) {
            term.coef = coef;
            return;
        }
    }
    terms_.push_back({attr, coef});
}

double
LinearModel::coefficient(std::size_t attr) const
{
    for (const auto &t : terms_) {
        if (t.attr == attr)
            return t.coef;
    }
    return 0.0;
}

double
LinearModel::predict(std::span<const double> row) const
{
    double acc = intercept_;
    for (const auto &t : terms_) {
        mtperf_assert(t.attr < row.size(), "model term out of row range");
        acc += t.coef * row[t.attr];
    }
    return acc;
}

double
LinearModel::meanAbsoluteError(const Dataset &ds,
                               std::span<const std::size_t> rows) const
{
    if (rows.empty())
        return 0.0;
    double acc = 0.0;
    for (std::size_t r : rows)
        acc += std::abs(predict(ds.row(r)) - ds.target(r));
    return acc / static_cast<double>(rows.size());
}

std::string
LinearModel::toString(const Schema &schema, int digits) const
{
    std::ostringstream os;
    os << schema.targetName() << " = " << formatDouble(intercept_, digits);
    for (const auto &t : terms_) {
        const char *sign = t.coef < 0.0 ? " - " : " + ";
        os << sign << formatDouble(std::abs(t.coef), digits) << " * "
           << schema.attributeName(t.attr);
    }
    return os.str();
}

void
LinearModel::blendWith(const LinearModel &other, double n, double k)
{
    const double denom = n + k;
    mtperf_assert(denom > 0.0, "degenerate smoothing blend");
    const double wa = n / denom;
    const double wb = k / denom;

    intercept_ = wa * intercept_ + wb * other.intercept_;
    for (auto &t : terms_)
        t.coef *= wa;
    for (const auto &ot : other.terms_) {
        bool found = false;
        for (auto &t : terms_) {
            if (t.attr == ot.attr) {
                t.coef += wb * ot.coef;
                found = true;
                break;
            }
        }
        if (!found)
            terms_.push_back({ot.attr, wb * ot.coef});
    }
    // Drop terms that cancelled to keep the printed models tidy.
    std::erase_if(terms_, [](const Term &t) { return t.coef == 0.0; });
}

double
compensatedError(double mae, std::size_t n, std::size_t v)
{
    const auto dn = static_cast<double>(n);
    const auto dv = static_cast<double>(v);
    if (dn <= dv)
        return std::numeric_limits<double>::infinity();
    return (dn + dv) / (dn - dv) * mae;
}

LinearModelFitter::LinearModelFitter(const Dataset &ds,
                                     std::span<const std::size_t> rows,
                                     std::vector<std::size_t> attrs)
    : attrs_(std::move(attrs)),
      n_(rows.size()),
      gram_(attrs_.size())
{
    mtperf_assert(n_ > 0, "cannot fit a model on zero rows");
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
LinearModelFitter::fitSubset(std::span<const std::size_t> subset) const
{
    LinearModel m;
    if (attrs_.empty()) {
        // No attributes to regress on: the mean target, accumulated
        // in row order.
        double acc = 0.0;
        for (double y : y_)
            acc += y;
        m.setIntercept(acc / static_cast<double>(n_));
        return m;
    }
    const auto solution = gram_.solveSubset(subset);
    for (std::size_t j = 0; j < subset.size(); ++j)
        m.addTerm(attrs_[subset[j]], solution[j]);
    m.setIntercept(solution[subset.size()]);
    return m;
}

LinearModel
LinearModelFitter::fit() const
{
    std::vector<std::size_t> all(attrs_.size());
    std::iota(all.begin(), all.end(), 0);
    return fitSubset(all);
}

double
LinearModelFitter::addAbsResiduals(const LinearModel &m,
                                   std::span<const std::size_t> subset,
                                   std::size_t lo, std::size_t hi,
                                   double acc) const
{
    // Accumulate predictions term by term over contiguous columns.
    // The per-row addition order (intercept, then terms in order) and
    // the row-order |residual| sum match LinearModel::predict /
    // meanAbsoluteError exactly, so both paths agree bit-for-bit
    // however the rows are split into ranges.
    double *resid = resid_.data();
    std::fill(resid + lo, resid + hi, m.intercept());
    const auto &terms = m.terms();
    for (std::size_t t = 0; t < terms.size(); ++t) {
        const double coef = terms[t].coef;
        const double *col = cols_.data() + subset[t] * n_;
        for (std::size_t i = lo; i < hi; ++i)
            resid[i] += coef * col[i];
    }
    for (std::size_t i = lo; i < hi; ++i)
        acc += std::abs(resid[i] - y_[i]);
    return acc;
}

double
LinearModelFitter::maeOfSubset(const LinearModel &m,
                               std::span<const std::size_t> subset) const
{
    return addAbsResiduals(m, subset, 0, n_, 0.0) /
           static_cast<double>(n_);
}

std::optional<double>
LinearModelFitter::boundedError(const LinearModel &m,
                                std::span<const std::size_t> subset,
                                double bound) const
{
    // Exact: every term added is non-negative, and rounding is
    // monotonic, so the partial sum never exceeds the full one; the
    // division by n and compensatedError's positive factor are
    // monotonic too. A partial error at or above the bound therefore
    // means a full error at or above it, which loses simplify()'s
    // strict "err < best" test either way.
    const auto dn = static_cast<double>(n_);
    const std::size_t v = m.numParameters();
    double acc = 0.0;
    for (std::size_t lo = 0;; lo += kErrorBlockRows) {
        const std::size_t hi = std::min(n_, lo + kErrorBlockRows);
        acc = addAbsResiduals(m, subset, lo, hi, acc);
        const double err = compensatedError(acc / dn, n_, v);
        if (hi == n_)
            return err;
        if (err >= bound)
            return std::nullopt;
    }
}

std::vector<std::size_t>
LinearModelFitter::subsetOf(const LinearModel &m) const
{
    std::vector<std::size_t> subset;
    subset.reserve(m.terms().size());
    for (const auto &term : m.terms()) {
        const auto it =
            std::lower_bound(attrs_.begin(), attrs_.end(), term.attr);
        mtperf_assert(it != attrs_.end() && *it == term.attr,
                      "model term outside the fitter's attribute set");
        subset.push_back(
            static_cast<std::size_t>(it - attrs_.begin()));
    }
    return subset;
}

double
LinearModelFitter::meanAbsoluteError(const LinearModel &m) const
{
    return maeOfSubset(m, subsetOf(m));
}

void
LinearModelFitter::simplify(LinearModel &m) const
{
    // Per round, refit with each surviving term dropped and keep the
    // single removal that improves the compensated error the most.
    static obs::Counter &candidatesCounter =
        obs::counter("linear.simplify_candidates");
    static obs::Counter &abandonedCounter =
        obs::counter("linear.simplify_abandoned");
    std::uint64_t candidates = 0, abandoned = 0;

    std::vector<std::size_t> subset = subsetOf(m);
    double best_err =
        compensatedError(maeOfSubset(m, subset), n_, m.numParameters());
    while (!subset.empty()) {
        double best_candidate_err = best_err;
        std::size_t best_drop = subset.size();
        LinearModel best_model;

        for (std::size_t drop = 0; drop < subset.size(); ++drop) {
            std::vector<std::size_t> kept;
            kept.reserve(subset.size() - 1);
            for (std::size_t j = 0; j < subset.size(); ++j) {
                if (j != drop)
                    kept.push_back(subset[j]);
            }
            LinearModel candidate = fitSubset(kept);
            ++candidates;
            const std::optional<double> err =
                boundedError(candidate, kept, best_candidate_err);
            if (!err) {
                ++abandoned;
                continue;
            }
            if (*err < best_candidate_err) {
                best_candidate_err = *err;
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
    candidatesCounter.add(candidates);
    abandonedCounter.add(abandoned);
}

void
LinearRegression::fit(const Dataset &train)
{
    if (train.empty())
        mtperf_fatal("LinearRegression: empty training set");
    std::vector<std::size_t> rows(train.size());
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<std::size_t> attrs(train.numAttributes());
    std::iota(attrs.begin(), attrs.end(), 0);
    LinearModelFitter fitter(train, rows, std::move(attrs));
    model_ = fitter.fit();
    if (simplify_)
        fitter.simplify(model_);
}

double
LinearRegression::predict(std::span<const double> row) const
{
    return model_.predict(row);
}

} // namespace mtperf
