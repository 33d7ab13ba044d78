// Cubic-spline tests: exactness, smoothness, and the LUT interpolation
// accuracy the paper relies on (Section III-D.1).
#include "linalg/spline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace ota::linalg {
namespace {

TEST(CubicSpline1D, InterpolatesKnotsExactly) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> y{1.0, 2.0, 0.0, 5.0};
  CubicSpline1D s(x, y);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s(x[i]), y[i], 1e-12);
  }
}

TEST(CubicSpline1D, TwoPointsIsLinear) {
  CubicSpline1D s({0.0, 2.0}, {1.0, 5.0});
  EXPECT_NEAR(s(1.0), 3.0, 1e-12);
  EXPECT_NEAR(s(0.5), 2.0, 1e-12);
  EXPECT_NEAR(s.derivative(1.3), 2.0, 1e-12);
}

TEST(CubicSpline1D, ReproducesLinearFunctionExactly) {
  // Natural splines reproduce degree-1 polynomials exactly.
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(0.1 * i);
    y.push_back(3.0 * x.back() - 0.5);
  }
  CubicSpline1D s(x, y);
  for (double q = 0.0; q <= 1.0; q += 0.013) {
    EXPECT_NEAR(s(q), 3.0 * q - 0.5, 1e-12);
  }
}

TEST(CubicSpline1D, SmoothFunctionAccuracy) {
  // 60 mV-style grid over a smooth exponential-ish curve: mid-segment error
  // should be far below the sample spacing effect (paper's justification for
  // the coarse LUT grid + spline).
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    x.push_back(0.06 * i);
    y.push_back(std::exp(x.back()));
  }
  CubicSpline1D s(x, y);
  double max_rel = 0.0;
  for (double q = 0.0; q <= 1.2; q += 0.007) {
    max_rel = std::max(max_rel, std::fabs(s(q) - std::exp(q)) / std::exp(q));
  }
  // Natural boundary conditions limit edge accuracy; interior error is lower.
  EXPECT_LT(max_rel, 5e-4);
}

TEST(CubicSpline1D, DerivativeMatchesFiniteDifference) {
  std::vector<double> x, y;
  for (int i = 0; i <= 15; ++i) {
    x.push_back(0.1 * i);
    y.push_back(std::sin(x.back()));
  }
  CubicSpline1D s(x, y);
  const double h = 1e-6;
  for (double q = 0.1; q < 1.4; q += 0.11) {
    const double fd = (s(q + h) - s(q - h)) / (2.0 * h);
    EXPECT_NEAR(s.derivative(q), fd, 1e-6);
  }
}

TEST(CubicSpline1D, Validation) {
  EXPECT_THROW(CubicSpline1D({1.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({0.0, 0.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({1.0, 0.5}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({0.0, 1.0}, {1.0}), InvalidArgument);
}

TEST(BicubicSpline, InterpolatesGridExactly) {
  std::vector<double> x{0.0, 1.0, 2.0};
  std::vector<double> y{0.0, 0.5, 1.0, 1.5};
  MatrixD z(3, 4);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) z(i, j) = static_cast<double>(i * 10 + j);
  BicubicSpline s(x, y, z);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(s(x[i], y[j]), z(i, j), 1e-10);
}

TEST(BicubicSpline, BilinearFunctionReproduced) {
  std::vector<double> x, y;
  for (int i = 0; i <= 8; ++i) x.push_back(0.15 * i);
  for (int j = 0; j <= 6; ++j) y.push_back(0.2 * j);
  MatrixD z(x.size(), y.size());
  auto f = [](double a, double b) { return 2.0 * a - 3.0 * b + 0.5 * a * b; };
  for (size_t i = 0; i < x.size(); ++i)
    for (size_t j = 0; j < y.size(); ++j) z(i, j) = f(x[i], y[j]);
  BicubicSpline s(x, y, z);
  for (double a = 0.0; a <= 1.2; a += 0.07)
    for (double b = 0.0; b <= 1.2; b += 0.09)
      EXPECT_NEAR(s(a, b), f(a, b), 1e-9) << a << "," << b;
}

TEST(BicubicSpline, SmoothSurfaceAccuracy) {
  // Emulates the 21x21 LUT grid of the paper (0..1.2 V, 60 mV step).
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) x.push_back(0.06 * i);
  y = x;
  auto f = [](double vgs, double vds) {
    return std::log1p(std::exp(8.0 * (vgs - 0.35))) * (1.0 + 0.4 * vds);
  };
  MatrixD z(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i)
    for (size_t j = 0; j < y.size(); ++j) z(i, j) = f(x[i], y[j]);
  BicubicSpline s(x, y, z);
  double max_err = 0.0;
  for (double a = 0.0; a <= 1.2; a += 0.017)
    for (double b = 0.0; b <= 1.2; b += 0.019)
      max_err = std::max(max_err, std::fabs(s(a, b) - f(a, b)));
  EXPECT_LT(max_err, 2e-3);
}

TEST(BicubicSpline, ClampsOutsideGrid) {
  std::vector<double> x{0.0, 1.0};
  std::vector<double> y{0.0, 1.0};
  MatrixD z(2, 2);
  z(0, 0) = 0.0; z(0, 1) = 1.0; z(1, 0) = 2.0; z(1, 1) = 3.0;
  BicubicSpline s(x, y, z);
  EXPECT_NEAR(s(-5.0, -5.0), z(0, 0), 1e-12);
  EXPECT_NEAR(s(5.0, 5.0), z(1, 1), 1e-12);
}

TEST(BicubicSpline, GridMismatchThrows) {
  MatrixD z(2, 3);
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {0.0, 1.0}, z), InvalidArgument);
}

TEST(BicubicSpline, KnotsValidatedAtConstruction) {
  const MatrixD z(2, 2);
  EXPECT_THROW(BicubicSpline({1.0, 0.0}, {0.0, 1.0}, z), InvalidArgument);
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {0.0, 0.0}, z), InvalidArgument);
  EXPECT_THROW(BicubicSpline({0.0}, {0.0, 1.0}, MatrixD(1, 2)), InvalidArgument);
  EXPECT_THROW((void)BicubicSpline::Slice()(0.5), InternalError);
  EXPECT_THROW((void)BicubicSpline().slice(0.5), InternalError);
}

TEST(BicubicSpline, SliceMatchesPointEvaluationBitForBit) {
  // The 21x21 LUT grid shape.  One slice per y serves every x, and must give
  // the point evaluator's exact bits, inside the grid and clamped outside it.
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) x.push_back(0.06 * i);
  y = x;
  MatrixD z(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i)
    for (size_t j = 0; j < y.size(); ++j)
      z(i, j) = std::exp(3.0 * x[i]) * std::sin(2.0 * y[j] + x[i]);
  BicubicSpline s(x, y, z);
  size_t mismatches = 0;
  for (double b = -0.25; b <= 1.45; b += 0.0131) {
    const BicubicSpline::Slice at_b = s.slice(b);
    for (double a = -0.25; a <= 1.45; a += 0.0173) {
      mismatches += std::bit_cast<uint64_t>(at_b(a)) != std::bit_cast<uint64_t>(s(a, b));
    }
    for (double a : x) {
      mismatches += std::bit_cast<uint64_t>(at_b(a)) != std::bit_cast<uint64_t>(s(a, b));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace ota::linalg
