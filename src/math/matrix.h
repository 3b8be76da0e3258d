/**
 * @file
 * A dense row-major matrix of doubles.
 *
 * Deliberately small: the Gram/Cholesky least-squares solver only
 * needs construction and bounds-checked element access. No products,
 * no expression templates, no views.
 */

#ifndef MTPERF_MATH_MATRIX_H_
#define MTPERF_MATH_MATRIX_H_

#include <cstddef>
#include <vector>

namespace mtperf {

/** Dense row-major matrix. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** @p rows x @p cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace mtperf

#endif // MTPERF_MATH_MATRIX_H_
