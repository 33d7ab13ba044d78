// Column-panel weight matrices and the one kernel that applies them: every
// projection of the inference engine.
//
// An engine weight never changes after compile, so it is packed once.  A
// (k, n) matrix is stored as ceil(n / kWidth) column panels; panel j holds
// columns [j * kWidth, (j + 1) * kWidth) of every row p, row after row, and
// is zero-padded past column n.  A panel is two 16-byte SIMD vectors wide:
// 4 doubles or 8 floats.  project() keeps a block of rows x panels of
// outputs in vector registers while p runs over the whole of k, so a partial
// sum is never loaded or stored between products (the packed-panel scheme
// of Goto & van de Geijn, ACM TOMS 2008, and BLIS).
//
// Numerical contract: every output element is summed p ascending from +0,
// one rounded product and then one add per p — the order of a naive
// `acc = 0; for (p = 0; p < k; ++p) acc += x[p] * w(p, c);` loop, and of the
// NN GEMM in ml/tensor.cpp, so the engine's double tier stays bit-identical
// to the autograd path.  The tile shape follows the row count; the order
// does not.  The build keeps the multiply and the add apart
// (-ffp-contract=off), so no target fuses them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace ota::ml {

template <typename T>
class PanelMatrix {
 public:
  /// Columns per panel: two 16-byte vectors of T.
  static constexpr int64_t kWidth = 32 / sizeof(T);

  PanelMatrix() = default;

  /// Packs a row-major (k, n) matrix, each element converted to T (float
  /// rounds to nearest, as BasicTensor<float>::from does).
  static PanelMatrix from(const Tensor& w);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t panels() const { return (cols_ + kWidth - 1) / kWidth; }
  /// Panel j: rows() rows of kWidth values.
  const T* panel(int64_t j) const {
    return data_.data() + j * rows_ * kWidth;
  }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<T> data_;
};

/// out[r][0, n) = x[r][0, k) * w for every row r, where (k, n) is w's shape.
/// Rows go in tiles of four, each applied once per panel; the last one to
/// three rows take one, two or four panels at a time, so a tile of any
/// height holds up to eight vector accumulators and a lone row is not
/// charged for four.  Writes exactly n values per output row.  Throws
/// InvalidArgument when x and out hold different row counts.
template <typename T>
void project(std::span<const T* const> x, const PanelMatrix<T>& w,
             std::span<T* const> out);

}  // namespace ota::ml
