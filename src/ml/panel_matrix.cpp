#include "ml/panel_matrix.hpp"

#include <algorithm>
#include <cstring>

namespace ota::ml {

namespace {

/// One 16-byte vector of T (a GCC/Clang vector extension, so every target
/// gets its own SIMD registers without an intrinsic): 2 doubles or 4 floats.
template <typename T>
struct VectorOf {
  typedef T type __attribute__((vector_size(16)));
};
template <typename T>
using Vec = typename VectorOf<T>::type;

template <typename T>
constexpr int64_t kLanes = static_cast<int64_t>(sizeof(Vec<T>) / sizeof(T));

template <typename T>
Vec<T> load(const T* p) {
  Vec<T> v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
Vec<T> splat(T s) {
  if constexpr (kLanes<T> == 2) {
    return Vec<T>{s, s};
  } else {
    return Vec<T>{s, s, s, s};
  }
}

/// Rows [0, R) of x times panels [j, j + P) of w, into the same columns of
/// out: R x P x 2 vector accumulators start at +0 and stay in registers
/// while p runs 0..k-1, each adding its rounded product in turn.
template <int R, int P, typename T>
void tile(const T* const* x, const PanelMatrix<T>& w, int64_t j,
          T* const* out) {
  constexpr int64_t kWidth = PanelMatrix<T>::kWidth;
  constexpr int64_t kHalf = kLanes<T>;
  const int64_t k = w.rows();
  const T* panel[P] = {};
  for (int q = 0; q < P; ++q) panel[q] = w.panel(j + q);
  Vec<T> acc[R][P][2] = {};
  for (int64_t p = 0; p < k; ++p) {
    Vec<T> b[P][2] = {};
    for (int q = 0; q < P; ++q) {
      b[q][0] = load(panel[q] + p * kWidth);
      b[q][1] = load(panel[q] + p * kWidth + kHalf);
    }
    for (int r = 0; r < R; ++r) {
      const Vec<T> a = splat(x[r][p]);
      for (int q = 0; q < P; ++q) {
        acc[r][q][0] += a * b[q][0];
        acc[r][q][1] += a * b[q][1];
      }
    }
  }
  // The last panel is zero-padded past column n: it stores only the row's
  // first n - c values.
  for (int q = 0; q < P; ++q) {
    const int64_t c = (j + q) * kWidth;
    const int64_t m = std::min(kWidth, w.cols() - c);
    for (int r = 0; r < R; ++r) {
      if (m == kWidth) {
        std::memcpy(out[r] + c, &acc[r][q], sizeof acc[r][q]);
      } else {
        std::memcpy(out[r] + c, &acc[r][q],
                    static_cast<size_t>(m) * sizeof(T));
      }
    }
  }
}

/// tile<R, P> over panels [j, j + g): one tile, or panel by panel when g < P
/// (the matrix's last one to three panels).
template <int R, int P, typename T>
void tiles(const T* const* x, const PanelMatrix<T>& w, int64_t j, int64_t g,
           T* const* out) {
  if (g == P) {
    tile<R, P>(x, w, j, out);
  } else {
    for (int64_t q = j; q < j + g; ++q) tile<R, 1>(x, w, q, out);
  }
}

}  // namespace

template <typename T>
PanelMatrix<T> PanelMatrix<T>::from(const Tensor& w) {
  PanelMatrix m;
  m.rows_ = w.rows();
  m.cols_ = w.cols();
  m.data_.resize(static_cast<size_t>(m.panels() * m.rows_ * kWidth));
  for (int64_t p = 0; p < m.rows_; ++p) {
    for (int64_t c = 0; c < m.cols_; ++c) {
      m.data_[static_cast<size_t>((c / kWidth * m.rows_ + p) * kWidth +
                                  c % kWidth)] = static_cast<T>(w(p, c));
    }
  }
  return m;
}

template <typename T>
void project(std::span<const T* const> x, const PanelMatrix<T>& w,
             std::span<T* const> out) {
  if (x.size() != out.size()) {
    throw InvalidArgument("project: input and output row counts differ");
  }
  const size_t full = x.size() - x.size() % 4;
  const size_t rest = x.size() - full;
  // The last rows take one, two or four panels per tile (3, 2 or 1 rows),
  // right after the full tiles have read those panels.
  const int64_t group = rest == 2 ? 2 : rest == 1 ? 4 : 1;
  const T* const* xr = x.data() + full;
  T* const* yr = out.data() + full;
  for (int64_t j = 0; j < w.panels(); j += group) {
    const int64_t g = std::min(group, w.panels() - j);
    for (int64_t q = j; q < j + g; ++q) {
      for (size_t r = 0; r < full; r += 4) {
        tile<4, 1>(x.data() + r, w, q, out.data() + r);
      }
    }
    if (rest == 3) tiles<3, 1>(xr, w, j, g, yr);
    if (rest == 2) tiles<2, 2>(xr, w, j, g, yr);
    if (rest == 1) tiles<1, 4>(xr, w, j, g, yr);
  }
}

template class PanelMatrix<double>;
template class PanelMatrix<float>;
template void project<double>(std::span<const double* const>,
                              const PanelMatrix<double>&,
                              std::span<double* const>);
template void project<float>(std::span<const float* const>,
                             const PanelMatrix<float>&,
                             std::span<float* const>);

}  // namespace ota::ml
