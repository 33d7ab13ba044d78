// Cubic-spline interpolation for the precomputed device LUTs.
//
// The paper stores LUT samples on a coarse 60 mV grid and relies on cubic
// spline interpolation for intermediate bias points (Section III-D.1).
// CubicSpline1D implements the classical natural cubic spline; BicubicSpline
// applies it as a tensor product over a rectangular (Vgs, Vds) grid.
//
// Both share one solver.  The natural spline's tridiagonal (Thomas) system
// splits into a half that depends only on the knots — step sizes, forward
// multipliers, the eliminated diagonal — and a half that depends on the
// values.  SplineSweep computes the knot half once; solve() runs the value
// half in place.  A BicubicSpline keeps the sweep of its x knots, so a
// Slice (the spline along x at one fixed y) costs one row pass plus the
// value half, and each evaluation of it one segment search and one cubic.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace ota::linalg {

/// The knot-only half of the natural cubic spline's Thomas solve, shared by
/// every spline over the same knots.
class SplineSweep {
 public:
  SplineSweep() = default;

  /// Requires at least two strictly increasing knots.
  explicit SplineSweep(const std::vector<double>& x);

  /// The value-dependent half: writes the second derivatives of the natural
  /// spline through (x_i, y[i]) into m.  The right-hand side is formed in m
  /// and swept there, so no scratch is needed.  y and m hold one entry per
  /// knot and must not overlap.
  void solve(std::span<const double> y, std::span<double> m) const;

 private:
  std::vector<double> h_;     // h_[i] = x[i+1] - x[i]
  std::vector<double> w_;     // forward-sweep multiplier of interior knot k
  std::vector<double> diag_;  // eliminated diagonal of interior knot k
};

/// Natural cubic spline through (x_i, y_i) with strictly increasing x.
class CubicSpline1D {
 public:
  CubicSpline1D() = default;

  /// Builds the spline; requires at least two points and strictly increasing x.
  CubicSpline1D(std::vector<double> x, std::vector<double> y);

  /// Evaluates the spline at `x`.  Outside the knot range the boundary cubic
  /// is extrapolated (callers clamp when extrapolation is not wanted).
  double operator()(double x) const;

  /// First derivative of the spline at `x`.
  double derivative(double x) const;

  const std::vector<double>& knots() const { return x_; }
  bool empty() const { return x_.empty(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> m_;  // second derivatives at the knots
};

/// Tensor-product cubic spline over a rectangular grid: z = f(x, y).
/// Construction solves one spline along y per grid row.  slice(y) evaluates
/// the rows at y and solves the spline along x through those values; the
/// value at (x, y) is slice(y)(x), so callers holding y fixed build the
/// slice once and evaluate it at many x.
class BicubicSpline {
 public:
  /// The spline along x at one fixed y.  It refers to its BicubicSpline,
  /// which must outlive it.
  class Slice {
   public:
    Slice() = default;

    /// Value at `x`, clamped to the x knot range.
    double operator()(double x) const;

   private:
    friend class BicubicSpline;
    const BicubicSpline* spline_ = nullptr;
    std::vector<double> zm_;  // [0, n): the rows at y; [n, 2n): their moments
  };

  BicubicSpline() = default;

  /// `z(i, j)` is the sample at (x[i], y[j]).  Both axes strictly increasing.
  BicubicSpline(std::vector<double> x, std::vector<double> y, Matrix<double> z);

  /// The spline along x at `y`, clamped to the y knot range.
  Slice slice(double y) const;

  /// Interpolated value at (x, y), clamped to the grid's bounding box.
  double operator()(double x, double y) const { return slice(y)(x); }

  const std::vector<double>& x_knots() const { return x_; }
  const std::vector<double>& y_knots() const { return y_; }
  /// The grid samples the spline interpolates.
  const Matrix<double>& samples() const { return z_; }
  bool empty() const { return x_.empty(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  SplineSweep x_sweep_;  // knot half of every slice's solve along x
  Matrix<double> z_;
  Matrix<double> zm_;    // second derivatives along y of each grid row
};

}  // namespace ota::linalg
