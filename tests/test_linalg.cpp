// Matrix and LU solver tests, real and complex.
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <complex>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ota::linalg {
namespace {

TEST(Matrix, BasicAccess) {
  MatrixD m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, MatVec) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  auto y = matvec(a, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecDimensionMismatchThrows) {
  MatrixD a(2, 2);
  EXPECT_THROW(matvec(a, {1.0}), InvalidArgument);
}

TEST(Lu, Solves2x2) {
  MatrixD a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  auto x = LuDecomposition<double>(a).solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the first diagonal entry forces a row swap.
  MatrixD a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  auto x = LuDecomposition<double>(a).solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(LuDecomposition<double>(a).solve({1.0, 2.0}), ConvergenceError);
}

TEST(Lu, ZeroMatrixThrows) {
  MatrixD a(3, 3);
  EXPECT_THROW((void)LuDecomposition<double>{a}, ConvergenceError);
}

TEST(Lu, NonSquareThrows) {
  MatrixD a(2, 3);
  EXPECT_THROW((void)LuDecomposition<double>{a}, InvalidArgument);
}

TEST(Lu, ComplexSystem) {
  using C = std::complex<double>;
  MatrixC a(2, 2);
  a(0, 0) = C{1.0, 1.0}; a(0, 1) = C{0.0, -1.0};
  a(1, 0) = C{2.0, 0.0}; a(1, 1) = C{1.0, 0.0};
  const std::vector<C> x_ref{C{1.0, 2.0}, C{-1.0, 0.5}};
  const auto b = matvec(a, x_ref);
  const auto x = LuDecomposition<std::complex<double>>(a).solve(b);
  EXPECT_NEAR(std::abs(x[0] - x_ref[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - x_ref[1]), 0.0, 1e-12);
}

class LuRandom : public ::testing::TestWithParam<int> {};

TEST_P(LuRandom, ReconstructsRandomSolution) {
  const int n = GetParam();
  Rng rng(42 + static_cast<uint64_t>(n));
  MatrixD a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(static_cast<size_t>(r), static_cast<size_t>(c)) = rng.normal();
    a(static_cast<size_t>(r), static_cast<size_t>(r)) += n;  // diagonal dominance
  }
  std::vector<double> x_ref(static_cast<size_t>(n));
  for (auto& v : x_ref) v = rng.normal();
  const auto b = matvec(a, x_ref);
  const auto x = LuDecomposition<double>(a).solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandom, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Lu, MultipleRhsAgainstOneFactorization) {
  MatrixD a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 4; a(1, 2) = 1;
  a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 4;
  LuDecomposition<double> lu(a);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> e(3, 0.0);
    e[static_cast<size_t>(k)] = 1.0;
    const auto x = lu.solve(e);
    const auto back = matvec(a, x);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(back[static_cast<size_t>(i)], e[static_cast<size_t>(i)], 1e-12);
    }
  }
}

}  // namespace
}  // namespace ota::linalg
