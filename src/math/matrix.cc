#include "math/matrix.h"

namespace mtperf {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

} // namespace mtperf
