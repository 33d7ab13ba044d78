// Golden tests for the tiled GEMM kernels in ml/tensor.cpp, and for the
// inference engine's panel kernel (ml/panel_matrix.hpp).
//
// Every mode (NN, NT, TN), both the overwrite and accumulate variants, is
// compared against a naive triple loop over a grid of shapes chosen to hit
// the register-tile remainders (rows % 4, cols % 4, odd k) and the k-panel
// boundary.  Tolerances are relative: the tiled kernels may sum in a
// different order than the reference, but each result must stay within a few
// ulps of it — and repeated runs must be bit-identical (the data-parallel
// trainer's determinism rests on that).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "ml/panel_matrix.hpp"
#include "ml/tensor.hpp"

namespace ota::ml {
namespace {

Tensor random_tensor(int64_t rows, int64_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (auto& v : t.data()) v = rng.uniform(-1.0, 1.0);
  return t;
}

Tensor ref_nn(const Tensor& a, const Tensor& b, const Tensor& c0) {
  Tensor c = c0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) += s;
    }
  }
  return c;
}

Tensor ref_nt(const Tensor& a, const Tensor& b, const Tensor& c0) {
  Tensor c = c0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(j, p);
      c(i, j) += s;
    }
  }
  return c;
}

Tensor ref_tn(const Tensor& a, const Tensor& b, const Tensor& c0) {
  Tensor c = c0;
  for (int64_t i = 0; i < a.cols(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < a.rows(); ++p) s += a(p, i) * b(p, j);
      c(i, j) += s;
    }
  }
  return c;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what,
                  int64_t k) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  // Reassociation error bound: a few ulps per accumulated term.
  const double tol = 1e-14 * static_cast<double>(k + 1);
  for (int64_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want.at(i)));
    EXPECT_NEAR(got.at(i), want.at(i), tol * scale)
        << what << " at flat index " << i;
  }
}

struct Shape {
  int64_t m, k, n;
};

// Remainder-heavy shapes plus one past the 256-wide k panel.
const Shape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},   {5, 7, 3},    {4, 4, 4},   {17, 1, 9},
    {1, 16, 1},  {3, 300, 5}, {33, 29, 31}, {8, 64, 48}, {20, 48, 130},
};

TEST(TensorTest, MatmulIntoMatchesNaive) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor(s.m, s.k, rng);
    const Tensor b = random_tensor(s.k, s.n, rng);
    Tensor c;
    matmul_into(a, b, c);
    expect_close(c, ref_nn(a, b, Tensor(s.m, s.n)), "NN", s.k);
  }
}

TEST(TensorTest, MatmulNtIntoMatchesNaive) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor(s.m, s.k, rng);
    const Tensor b = random_tensor(s.n, s.k, rng);
    Tensor c;
    matmul_nt_into(a, b, c);
    expect_close(c, ref_nt(a, b, Tensor(s.m, s.n)), "NT", s.k);
  }
}

TEST(TensorTest, MatmulTnIntoMatchesNaive) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor(s.k, s.m, rng);
    const Tensor b = random_tensor(s.k, s.n, rng);
    Tensor c;
    matmul_tn_into(a, b, c);
    expect_close(c, ref_tn(a, b, Tensor(s.m, s.n)), "TN", s.k);
  }
}

TEST(TensorTest, AccumulateVariantsAddOntoExistingOutput) {
  Rng rng(104);
  for (const Shape& s : kShapes) {
    const Tensor nn_a = random_tensor(s.m, s.k, rng);
    const Tensor nn_b = random_tensor(s.k, s.n, rng);
    const Tensor nt_b = random_tensor(s.n, s.k, rng);
    const Tensor tn_a = random_tensor(s.k, s.m, rng);
    const Tensor seed = random_tensor(s.m, s.n, rng);

    Tensor c = seed;
    matmul_acc(nn_a, nn_b, c);
    expect_close(c, ref_nn(nn_a, nn_b, seed), "NN acc", s.k);

    c = seed;
    matmul_nt_acc(nn_a, nt_b, c);
    expect_close(c, ref_nt(nn_a, nt_b, seed), "NT acc", s.k);

    c = seed;
    matmul_tn_acc(tn_a, nn_b, c);
    expect_close(c, ref_tn(tn_a, nn_b, seed), "TN acc", s.k);
  }
}

TEST(TensorTest, KernelsAreRunToRunBitIdentical) {
  Rng rng(105);
  const Tensor a = random_tensor(21, 35, rng);
  const Tensor b = random_tensor(35, 19, rng);
  const Tensor bt = random_tensor(19, 35, rng);
  const Tensor at = random_tensor(35, 21, rng);
  Tensor c1, c2;
  matmul_into(a, b, c1);
  matmul_into(a, b, c2);
  EXPECT_EQ(c1.data(), c2.data());
  matmul_nt_into(a, bt, c1);
  matmul_nt_into(a, bt, c2);
  EXPECT_EQ(c1.data(), c2.data());
  matmul_tn_into(at, b, c1);
  matmul_tn_into(at, b, c2);
  EXPECT_EQ(c1.data(), c2.data());
}

TEST(TensorTest, ShapeMismatchesThrow) {
  const Tensor a(2, 3), b(4, 5);
  Tensor c;
  EXPECT_THROW(matmul_into(a, b, c), InvalidArgument);
  Tensor bad(7, 7);
  const Tensor ok_b(3, 5);
  EXPECT_THROW(matmul_acc(a, ok_b, bad), InvalidArgument);
}

// Regression: the shape check must run BEFORE the storage is sized.  A
// negative dimension used to reach std::vector's fill constructor as a huge
// size_t (rows * cols wraps), so the constructor died in the allocator
// instead of throwing InvalidArgument.
TEST(TensorTest, NegativeDimensionsThrowBeforeAllocating) {
  EXPECT_THROW(Tensor(-1, 4), InvalidArgument);
  EXPECT_THROW(Tensor(4, -1), InvalidArgument);
  EXPECT_THROW(Tensor(-3, -7), InvalidArgument);
  EXPECT_THROW(Tensor(0, 5), InvalidArgument);
  EXPECT_THROW(TensorF(-1, 4), InvalidArgument);
  EXPECT_THROW(TensorF(4, -1), InvalidArgument);
  EXPECT_THROW(TensorF(0, 0), InvalidArgument);
}

TEST(TensorFTest, FromNarrowsEveryElementRoundToNearest) {
  Rng rng(109);
  const Tensor t = random_tensor(7, 13, rng);
  const TensorF f = TensorF::from(t);
  ASSERT_EQ(f.rows(), t.rows());
  ASSERT_EQ(f.cols(), t.cols());
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(f.at(i), static_cast<float>(t.at(i))) << "flat index " << i;
  }
}

// The engine's panel kernel owes more than a tolerance: each output element
// must equal a naive loop bit for bit (sum p ascending from +0, multiply then
// add) at both tiers, for every tile shape.  Rows 1-9 give full 4-row tiles
// plus every short tile (3x1, 2x2, 1x4 panels); the widths give column tails
// inside a panel and panel counts that the short tiles do not divide.  One
// row holds +0 and one -0 throughout (+0 + -0 is +0, so an accumulator that
// starts from its first product instead of +0 shows), and a guard after each
// output row catches a store past column n.
template <typename T>
void expect_project_equals_naive_loop() {
  constexpr int64_t kGuard = PanelMatrix<T>::kWidth;
  const T sentinel = T(12345.5);
  Rng rng(127);
  for (const int64_t k : {1, 2, 7, 64}) {
    for (const int64_t n : {1, 3, 5, 9, 17, 33}) {
      const Tensor w64 = random_tensor(k, n, rng);
      const PanelMatrix<T> w = PanelMatrix<T>::from(w64);
      ASSERT_EQ(w.rows(), k);
      ASSERT_EQ(w.cols(), n);
      for (size_t rows = 1; rows <= 9; ++rows) {
        std::vector<std::vector<T>> x(rows, std::vector<T>(k));
        for (std::vector<T>& row : x) {
          for (T& v : row) v = static_cast<T>(rng.uniform(-1.0, 1.0));
        }
        if (rows >= 2) std::fill(x.back().begin(), x.back().end(), T(-0.0));
        if (rows >= 3) std::fill(x[0].begin(), x[0].end(), T(0));
        std::vector<std::vector<T>> out(
            rows, std::vector<T>(static_cast<size_t>(n + kGuard), sentinel));
        std::vector<const T*> in;
        std::vector<T*> dst;
        for (size_t r = 0; r < rows; ++r) {
          in.push_back(x[r].data());
          dst.push_back(out[r].data());
        }
        project<T>(in, w, dst);
        for (size_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < n; ++c) {
            T acc = T(0);
            for (int64_t p = 0; p < k; ++p) {
              acc += x[r][static_cast<size_t>(p)] * static_cast<T>(w64(p, c));
            }
            const T got = out[r][static_cast<size_t>(c)];
            EXPECT_EQ(std::memcmp(&got, &acc, sizeof(T)), 0)
                << got << " != " << acc << " at row " << r << " col " << c
                << " (" << rows << " rows, k=" << k << " n=" << n << ")";
          }
          for (int64_t c = n; c < n + kGuard; ++c) {
            EXPECT_EQ(out[r][static_cast<size_t>(c)], sentinel)
                << "store past column " << n << " at row " << r << " col "
                << c << " (" << rows << " rows, k=" << k << ")";
          }
        }
      }
    }
  }
}

TEST(PanelMatrixTest, ProjectEqualsNaiveLoopBitForBit) {
  expect_project_equals_naive_loop<double>();
  expect_project_equals_naive_loop<float>();
}

}  // namespace
}  // namespace ota::ml
