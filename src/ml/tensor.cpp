#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace ota::ml {

template <typename T>
BasicTensor<T> BasicTensor<T>::xavier(int64_t rows, int64_t cols, Rng& rng) {
  BasicTensor t(rows, cols);
  t.xavier_cols(0, cols, rng);
  return t;
}

template <typename T>
void BasicTensor<T>::xavier_cols(int64_t col, int64_t cols, Rng& rng) {
  if (col < 0 || cols <= 0 || col > cols_ - cols) {
    throw InvalidArgument("Tensor::xavier_cols: column block out of range");
  }
  const double bound = std::sqrt(6.0 / static_cast<double>(rows_ + cols));
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t c = col; c < col + cols; ++c) {
      (*this)(r, c) = rng.uniform(-bound, bound);
    }
  }
}

template <typename T>
T BasicTensor<T>::norm() const {
  T acc = 0;
  for (T v : data_) acc += v * v;
  return std::sqrt(acc);
}

// The training-side helpers above are built for the double tensor only.
template class BasicTensor<double>;

namespace {

enum class Mode { NN, NT, TN };

// Cache-blocked, register-tiled GEMM kernels.
//
// These serve every GEMM of training: the transformer forward pass and the
// autograd backward closures.  The shapes are small-to-medium (sequence x
// d_model, d_model x d_ff, sequence x vocab), so the wins come from register
// tiling and contiguous inner loops that -O3 can autovectorize, plus a
// k-panel block that keeps the streamed B slab hot once matrices outgrow L1.
//
// Determinism contract: for a given shape, every C element is accumulated in
// a fixed order that does not depend on threads or any runtime knob — the
// kernels are serial per call and the data-parallel trainer relies on their
// run-to-run bit stability.

constexpr int64_t kPanelK = 256;  ///< k-block: B panel rows kept cache-hot
constexpr int64_t kRowTile = 4;   ///< NN micro-kernel: C rows per step

// C[ib:ie) += A[ib:ie, pb:pe) * B[pb:pe, :) with row-major leading
// dimensions lda/ldb/ldc.  Four C rows move together: each streamed B row is
// reused four times and the j loop is a set of independent lanes the
// compiler vectorizes.
void nn_panel(const double* a, int64_t lda, const double* b, int64_t ldb,
              double* c, int64_t ldc, int64_t ib, int64_t ie, int64_t pb,
              int64_t pe, int64_t n) {
  int64_t i = ib;
  for (; i + kRowTile <= ie; i += kRowTile) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    double* c0 = c + (i + 0) * ldc;
    double* c1 = c + (i + 1) * ldc;
    double* c2 = c + (i + 2) * ldc;
    double* c3 = c + (i + 3) * ldc;
    for (int64_t p = pb; p < pe; ++p) {
      const double* bp = b + p * ldb;
      const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
#pragma omp simd
      for (int64_t j = 0; j < n; ++j) {
        const double bv = bp[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
      }
    }
  }
  for (; i < ie; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (int64_t p = pb; p < pe; ++p) {
      const double* bp = b + p * ldb;
      const double av = ai[p];
#pragma omp simd
      for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

// C (m,n) += A (m,k) * B (k,n), both row-major.
void nn_driver(const double* a, const double* b, double* c, int64_t m,
               int64_t k, int64_t n) {
  for (int64_t pb = 0; pb < k; pb += kPanelK) {
    const int64_t pe = std::min(k, pb + kPanelK);
    nn_panel(a, k, b, n, c, n, 0, m, pb, pe, n);
  }
}

// C (m,n) += A (m,k) * B(n,k)^T.  Both operands are read along contiguous
// rows, so no packing is needed; a 2x4 register tile gives eight independent
// fused-multiply chains per k sweep.  Each C element is a single ascending-p
// dot product — the exact order a naive loop uses.
void nt_driver(const double* a, const double* b, double* c, int64_t m,
               int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + (i + 0) * k;
    const double* a1 = a + (i + 1) * k;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + (j + 0) * k;
      const double* b1 = b + (j + 1) * k;
      const double* b2 = b + (j + 2) * k;
      const double* b3 = b + (j + 3) * k;
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double av0 = a0[p], av1 = a1[p];
        s00 += av0 * b0[p];
        s01 += av0 * b1[p];
        s02 += av0 * b2[p];
        s03 += av0 * b3[p];
        s10 += av1 * b0[p];
        s11 += av1 * b1[p];
        s12 += av1 * b2[p];
        s13 += av1 * b3[p];
      }
      double* c0 = c + (i + 0) * n + j;
      double* c1 = c + (i + 1) * n + j;
      c0[0] += s00; c0[1] += s01; c0[2] += s02; c0[3] += s03;
      c1[0] += s10; c1[1] += s11; c1[2] += s12; c1[3] += s13;
    }
    for (; j < n; ++j) {
      const double* bj = b + j * k;
      double s0 = 0.0, s1 = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        s0 += a0[p] * bj[p];
        s1 += a1[p] * bj[p];
      }
      c[(i + 0) * n + j] += s0;
      c[(i + 1) * n + j] += s1;
    }
  }
  for (; i < m; ++i) {
    const double* ai = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const double* bj = b + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += ai[p] * bj[p];
      c[i * n + j] += s;
    }
  }
}

// C (m,n) += A(k,m)^T * B (k,n) as a sequence of rank-1 updates (p outer):
// in this order every access — the A row, the B row, and the streamed C
// update — is contiguous, so nothing needs packing and each C-row update
// vectorizes as independent lanes.  Register-tiling the i loop was measured
// slower here (more concurrent write streams than the single-row form), so
// the row form stays.  Accumulation order per element is ascending p, same
// as a naive loop.
void tn_driver(const double* a, const double* b, double* c, int64_t m,
               int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    const double* ap = a + p * m;
    const double* bp = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const double av = ap[i];
      double* ci = c + i * n;
      for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

// One entry point serving all three transpose modes, with an accumulate
// flag.
template <Mode M, bool Acc>
void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const int64_t m = M == Mode::TN ? a.cols() : a.rows();
  const int64_t k = M == Mode::TN ? a.rows() : a.cols();
  const int64_t n = M == Mode::NT ? b.rows() : b.cols();
  const int64_t bk = M == Mode::NT ? b.cols() : b.rows();
  if (k != bk) throw InvalidArgument("matmul: inner dimension mismatch");
  if constexpr (Acc) {
    if (c.rows() != m || c.cols() != n) {
      throw InvalidArgument("matmul: output shape mismatch");
    }
  } else {
    if (c.rows() != m || c.cols() != n) c = Tensor(m, n);
    c.zero();
  }

  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* cd = c.data().data();
  if constexpr (M == Mode::NN) {
    STAT_REGION("ml.gemm.nn");
    nn_driver(ad, bd, cd, m, k, n);
  } else if constexpr (M == Mode::NT) {
    STAT_REGION("ml.gemm.nt");
    nt_driver(ad, bd, cd, m, k, n);
  } else {  // TN
    STAT_REGION("ml.gemm.tn");
    tn_driver(ad, bd, cd, m, k, n);
  }
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::NN, false>(a, b, c);
}
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::NT, false>(a, b, c);
}
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::TN, false>(a, b, c);
}
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::NN, true>(a, b, c);
}
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::NT, true>(a, b, c);
}
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm<Mode::TN, true>(a, b, c);
}

}  // namespace ota::ml
