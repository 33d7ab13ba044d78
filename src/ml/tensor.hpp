// Minimal dense tensor for the from-scratch transformer.
//
// The transformer here works on 2-D row-major matrices (sequence length x
// feature) plus 1-D vectors; double precision keeps finite-difference
// gradient checks tight and training deterministic across platforms.  The
// float instantiation (TensorF) is the inference engine's f32 serving tier:
// same layout, half the bytes per element.  Training and the bit-identity
// reference stay double, so the training-side helpers (xavier, norm) and the
// GEMMs below are defined for double only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ota::ml {

template <typename T>
class BasicTensor {
 public:
  BasicTensor() = default;
  /// Validates BEFORE sizing the storage: a negative dimension used to reach
  /// the vector constructor as a huge size_t (bad_alloc or worse) before the
  /// shape check ever ran.
  BasicTensor(int64_t rows, int64_t cols, T init = T(0))
      : rows_(rows), cols_(cols) {
    if (rows <= 0 || cols <= 0) throw InvalidArgument("Tensor: bad shape");
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), init);
  }

  static BasicTensor vector(int64_t n, T init = T(0)) {
    return BasicTensor(1, n, init);
  }

  /// Element-wise conversion of a tensor of another scalar type
  /// (round-to-nearest when narrowing double to float).
  template <typename U>
  static BasicTensor from(const BasicTensor<U>& t) {
    BasicTensor out;
    out.rows_ = t.rows();
    out.cols_ = t.cols();
    out.data_.assign(t.data().begin(), t.data().end());
    return out;
  }

  /// Xavier/Glorot uniform initialization for weight matrices.
  static BasicTensor xavier(int64_t rows, int64_t cols, Rng& rng);
  /// Draws a Xavier (rows(), cols) matrix in place into columns
  /// [col, col + cols), row-major like xavier(); InvalidArgument when the
  /// block does not fit.
  void xavier_cols(int64_t col, int64_t cols, Rng& rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool same_shape(const BasicTensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  T& operator()(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  T operator()(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  T& at(int64_t i) { return data_[static_cast<size_t>(i)]; }
  T at(int64_t i) const { return data_[static_cast<size_t>(i)]; }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }
  void zero() { fill(T(0)); }

  /// Frobenius norm, for gradient clipping.
  T norm() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<T> data_;
};

using Tensor = BasicTensor<double>;
using TensorF = BasicTensor<float>;

/// C = A * B (inner dimensions must agree).
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c);
/// C = A * B^T.
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c);
/// C = A^T * B.
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c);
/// C += A * B, C += A * B^T, C += A^T * B (accumulating variants).
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);

}  // namespace ota::ml
