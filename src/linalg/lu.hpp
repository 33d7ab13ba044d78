// LU factorization with partial pivoting and linear solves.
//
// Header-only template so the same code serves the real-valued Newton DC
// Jacobian and the complex-valued AC system matrix.
#pragma once

#include <cmath>
#include <complex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "linalg/matrix.hpp"

namespace ota::linalg {

namespace detail {
inline double magnitude(double x) { return std::fabs(x); }
inline double magnitude(const std::complex<double>& x) { return std::abs(x); }
}  // namespace detail

/// In-place LU decomposition of a square matrix with partial pivoting.
///
/// A decomposition is reusable storage: `factor_swap()` re-factors a new
/// matrix in the existing buffers (no allocation when the size is
/// unchanged), and `solve_into` writes into a caller-owned output buffer —
/// the combination the AC engine uses to solve thousands of frequency
/// points without a single per-point allocation.
template <typename T>
class LuDecomposition {
 public:
  /// An empty decomposition; call factor_swap() before solving.
  LuDecomposition() = default;

  /// Factors `a`; throws ConvergenceError when the matrix is numerically
  /// singular (pivot below `singular_tol` times the largest initial pivot).
  explicit LuDecomposition(Matrix<T> a, double singular_tol = 1e-14)
      : lu_(std::move(a)) {
    factor_in_place(singular_tol);
  }

  /// Re-factors `a` by exchanging buffers with it: on return `a` holds the
  /// previous decomposition's storage (unspecified contents, correctly sized
  /// scratch after the first round trip).  For hot loops that fully
  /// reassemble the matrix every iteration — the AC engine's per-frequency
  /// phase — this makes re-factoring allocation- and copy-free.
  void factor_swap(Matrix<T>& a, double singular_tol = 1e-14) {
    std::swap(lu_, a);
    factor_in_place(singular_tol);
  }

  /// Solves A x = b for the factored matrix A.
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
  }

  /// As solve(), writing into `x` (resized to n; must not alias `b`).
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    STAT_REGION("linalg.lu.solve");
    const size_t n = lu_.rows();
    if (b.size() != n) throw InvalidArgument("LU solve: rhs size mismatch");
    x.resize(n);
    // Forward substitution on the permuted RHS (L has implicit unit diagonal).
    for (size_t r = 0; r < n; ++r) {
      T acc = b[perm_[r]];
      for (size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
      x[r] = acc;
    }
    // Back substitution through U.
    for (size_t ri = n; ri-- > 0;) {
      T acc = x[ri];
      for (size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
      x[ri] = acc / lu_(ri, ri);
    }
  }

 private:
  void factor_in_place(double singular_tol) {
    // Injectable singularity: lets robustness tests exercise every caller's
    // ConvergenceError recovery path (gmin ladder, AC sweep, copilot retry)
    // without having to construct a numerically singular system.
    FAULT_SITE_AS("linalg.lu.factor", ConvergenceError);
    STAT_REGION("linalg.lu.factor");
    const size_t n = lu_.rows();
    if (lu_.cols() != n) throw InvalidArgument("LU: matrix must be square");
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), size_t{0});

    double max_entry = 0.0;
    for (size_t r = 0; r < n; ++r)
      for (size_t c = 0; c < n; ++c)
        max_entry = std::max(max_entry, detail::magnitude(lu_(r, c)));
    if (max_entry == 0.0) throw ConvergenceError("LU: zero matrix");

    for (size_t k = 0; k < n; ++k) {
      // Partial pivot: pick the row with the largest magnitude in column k.
      size_t pivot_row = k;
      double pivot_mag = detail::magnitude(lu_(k, k));
      for (size_t r = k + 1; r < n; ++r) {
        double m = detail::magnitude(lu_(r, k));
        if (m > pivot_mag) {
          pivot_mag = m;
          pivot_row = r;
        }
      }
      if (pivot_mag < singular_tol * max_entry) {
        throw ConvergenceError("LU: matrix is numerically singular");
      }
      if (pivot_row != k) {
        for (size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
        std::swap(perm_[k], perm_[pivot_row]);
      }
      const T pivot = lu_(k, k);
      for (size_t r = k + 1; r < n; ++r) {
        const T factor = lu_(r, k) / pivot;
        lu_(r, k) = factor;
        for (size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }

  Matrix<T> lu_;
  std::vector<size_t> perm_;
};

}  // namespace ota::linalg
