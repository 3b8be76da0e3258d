#include "math/matrix.h"

#include "common/logging.h"

namespace mtperf {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    mtperf_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    mtperf_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

} // namespace mtperf
