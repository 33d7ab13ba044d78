#include "linalg/spline.hpp"

#include <algorithm>

namespace ota::linalg {

namespace {

// One knot segment of a spline, located once and shared by every value set
// over the same knots: the segment index and the local weights.
struct Segment {
  Segment(const std::vector<double>& x, double t) {
    // Rightmost segment whose left knot is <= t; clamp to valid segment range.
    const auto it = std::upper_bound(x.begin(), x.end(), t);
    i = it == x.begin() ? 0
                        : std::min(static_cast<size_t>(it - x.begin()) - 1,
                                   x.size() - 2);
    h = x[i + 1] - x[i];
    a = (x[i + 1] - t) / h;
    b = (t - x[i]) / h;
  }

  // Spline value from knot values y and second derivatives m.
  double value(std::span<const double> y, std::span<const double> m) const {
    return a * y[i] + b * y[i + 1] +
           ((a * a * a - a) * m[i] + (b * b * b - b) * m[i + 1]) * h * h / 6.0;
  }

  size_t i;
  double h, a, b;
};

// Row i of a row-major grid.
template <typename M>
auto row(M& z, size_t i) {
  return std::span(z.data()).subspan(i * z.cols(), z.cols());
}

}  // namespace

SplineSweep::SplineSweep(const std::vector<double>& x) {
  const size_t n = x.size();
  if (n < 2) throw InvalidArgument("spline: need at least two knots");
  h_.resize(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    if (!(x[i + 1] > x[i])) {
      throw InvalidArgument("spline: knots must be strictly increasing");
    }
    h_[i] = x[i + 1] - x[i];
  }
  // Natural boundary conditions (m_0 = m_{n-1} = 0) leave the interior knots
  // 1..n-2 as unknowns; eliminate the sub-diagonal top to bottom.
  w_.assign(n, 0.0);
  diag_.assign(n, 0.0);
  for (size_t k = 1; k + 1 < n; ++k) {
    diag_[k] = 2.0 * (h_[k - 1] + h_[k]);
    if (k > 1) {
      w_[k] = h_[k - 1] / diag_[k - 1];
      diag_[k] -= w_[k] * h_[k - 1];
    }
  }
}

void SplineSweep::solve(std::span<const double> y, std::span<double> m) const {
  const size_t n = h_.size() + 1;
  m[0] = 0.0;
  m[n - 1] = 0.0;
  for (size_t k = 1; k + 1 < n; ++k) {
    m[k] = 6.0 * ((y[k + 1] - y[k]) / h_[k] - (y[k] - y[k - 1]) / h_[k - 1]);
  }
  // Forward sweep, then back substitution into the interior moments.
  for (size_t k = 2; k + 1 < n; ++k) m[k] -= w_[k] * m[k - 1];
  for (size_t k = n - 1; k-- > 1;) {
    if (k + 2 < n) m[k] -= h_[k] * m[k + 1];
    m[k] /= diag_[k];
  }
}

CubicSpline1D::CubicSpline1D(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  if (y_.size() != x_.size()) {
    throw InvalidArgument("CubicSpline1D: x/y size mismatch");
  }
  const SplineSweep sweep(x_);
  m_.resize(x_.size());
  sweep.solve(y_, m_);
}

double CubicSpline1D::operator()(double x) const {
  if (x_.empty()) throw InternalError("CubicSpline1D: evaluating empty spline");
  return Segment(x_, x).value(y_, m_);
}

double CubicSpline1D::derivative(double x) const {
  if (x_.empty()) throw InternalError("CubicSpline1D: evaluating empty spline");
  const Segment s(x_, x);
  const size_t i = s.i;
  return (y_[i + 1] - y_[i]) / s.h +
         ((3.0 * s.b * s.b - 1.0) * m_[i + 1] - (3.0 * s.a * s.a - 1.0) * m_[i]) *
             s.h / 6.0;
}

BicubicSpline::BicubicSpline(std::vector<double> x, std::vector<double> y,
                             Matrix<double> z)
    : x_(std::move(x)), y_(std::move(y)), x_sweep_(x_), z_(std::move(z)) {
  if (z_.rows() != x_.size() || z_.cols() != y_.size()) {
    throw InvalidArgument("BicubicSpline: grid size mismatch");
  }
  const SplineSweep y_sweep(y_);
  zm_.reset(z_.rows(), z_.cols());
  for (size_t i = 0; i < x_.size(); ++i) {
    y_sweep.solve(row(z_, i), row(zm_, i));
  }
}

BicubicSpline::Slice BicubicSpline::slice(double y) const {
  if (x_.empty()) throw InternalError("BicubicSpline: evaluating empty spline");
  const size_t n = x_.size();
  const Segment at_y(y_, std::clamp(y, y_.front(), y_.back()));
  Slice s;
  s.spline_ = this;
  s.zm_.resize(2 * n);
  const std::span<double> column = std::span(s.zm_).first(n);
  for (size_t i = 0; i < n; ++i) column[i] = at_y.value(row(z_, i), row(zm_, i));
  x_sweep_.solve(column, std::span(s.zm_).subspan(n));
  return s;
}

double BicubicSpline::Slice::operator()(double x) const {
  if (!spline_) throw InternalError("BicubicSpline::Slice: evaluating empty slice");
  const std::vector<double>& knots = spline_->x_;
  const size_t n = knots.size();
  return Segment(knots, std::clamp(x, knots.front(), knots.back()))
      .value(std::span(zm_).first(n), std::span(zm_).subspan(n));
}

}  // namespace ota::linalg
