/**
 * @file
 * Tests for the dense matrix type.
 */

#include <gtest/gtest.h>

#include "math/matrix.h"

namespace mtperf {
namespace {

TEST(Matrix, ConstructionAndFill)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixDeathTest, OutOfRangeIndexAborts)
{
    Matrix m(2, 2);
    EXPECT_DEATH((void)m(2, 0), "out of range");
}

} // namespace
} // namespace mtperf
