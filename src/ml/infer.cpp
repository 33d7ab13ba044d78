#include "ml/infer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <string>
#include <type_traits>

#include "common/stats.hpp"

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

// Every loop in this file replicates the accumulation order of the reference
// Var ops (ml/ops.cpp) and of the NN GEMM kernel (ml/tensor.cpp), so that the
// engine's floating-point results are bit-identical to the autograd path's:
// every element sums p ascending from +0, multiply then add, whatever the
// tile shape (the projections run ml/panel_matrix.hpp's kernel, which keeps
// that order).  Do not "clean up" loop orders or hoist terms here without
// re-running the bit-identity properties in tests/test_infer.cpp.
//
// Everything below is templated on the scalar, so the float32 serving tier
// is the float instantiation of the double reference code over its narrowed
// snapshot.  The `#pragma omp simd` hints sit only on lane-independent loops
// (each output element still sums in the same order), never on reductions
// (which would permit reassociation and break the bit-identity contract).
namespace {

/// Initial max for the softmax row scan.  The double value is the historical
/// -1e300 (not numeric_limits::lowest()) so the reference tier stays
/// byte-for-byte identical to the pre-tier code.
template <typename T>
constexpr T score_floor() {
  if constexpr (std::is_same_v<T, double>) {
    return -1e300;
  } else {
    return -1e30f;
  }
}

/// Ascending-p dot product — the reference accumulation order.  The double
/// overload IS the bit-identity contract; do not unroll it.
inline double dot_row(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  for (int64_t p = 0; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

/// Float32 overload: four independent accumulator chains so the compiler can
/// keep 4+ multiply-adds in flight (the serial chain is the bottleneck on
/// the attention score loop).  f32 has no bit-identity obligation to the
/// double tier — only run-to-run determinism, which a fixed unroll preserves.
inline float dot_row(const float* a, const float* b, int64_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t p = 0;
  for (; p + 4 <= n; p += 4) {
    s0 += a[p + 0] * b[p + 0];
    s1 += a[p + 1] * b[p + 1];
    s2 += a[p + 2] * b[p + 2];
    s3 += a[p + 3] * b[p + 3];
  }
  for (; p < n; ++p) s0 += a[p] * b[p];
  return (s0 + s1) + (s2 + s3);
}

/// The tier-T member of a double/float pair (weights or session state).
template <typename T, typename F64, typename F32>
auto& of_tier(F64& f64, F32& f32) {
  if constexpr (std::is_same_v<T, double>) {
    return f64;
  } else {
    return f32;
  }
}

/// Sessions per stacked tile of a group step.
constexpr size_t kTileRows = 4;

/// One pointer per row of a tile: the rows a projection reads or writes.
template <typename T>
using TileRows = std::array<T*, kTileRows>;

/// x * w for every row of x, as one projection: the encoder's and the cross
/// K/V's.  Timed as the NN GEMM these calls once were (ml.gemm.nn), so the
/// encode stays visible per layer.
template <typename T>
BasicTensor<T> project_all(const BasicTensor<T>& x, const PanelMatrix<T>& w) {
  STAT_REGION("ml.gemm.nn");
  BasicTensor<T> out(x.rows(), w.cols());
  std::vector<const T*> in(static_cast<size_t>(x.rows()));
  std::vector<T*> dst(in.size());
  for (size_t r = 0; r < in.size(); ++r) {
    in[r] = x.data().data() + static_cast<int64_t>(r) * x.cols();
    dst[r] = out.data().data() + static_cast<int64_t>(r) * out.cols();
  }
  project<T>(in, w, dst);
  return out;
}

template <typename T>
void add_bias_row(T* x, const BasicTensor<T>& bias) {
  for (int64_t c = 0; c < bias.cols(); ++c) x[c] += bias(0, c);
}

/// In-place softmax over s[0..n), same max/exp/normalize order as
/// softmax_rows in ops.cpp.
template <typename T>
void softmax_row(T* s, int64_t n) {
  T mx = score_floor<T>();
  for (int64_t c = 0; c < n; ++c) mx = std::max(mx, s[c]);
  T denom = T(0);
  for (int64_t c = 0; c < n; ++c) {
    s[c] = std::exp(s[c] - mx);
    denom += s[c];
  }
  for (int64_t c = 0; c < n; ++c) s[c] /= denom;
}

/// In-place row layer-norm, same statistics and output expression as
/// layer_norm in ops.cpp (eps matches its default).
template <typename T>
void layer_norm_row(T* x, int64_t n,
                    const LayerNormWeights<BasicTensor<T>>& w) {
  T mu = T(0);
  for (int64_t c = 0; c < n; ++c) mu += x[c];
  mu /= static_cast<T>(n);
  T var = T(0);
  for (int64_t c = 0; c < n; ++c) {
    const T d = x[c] - mu;
    var += d * d;
  }
  var /= static_cast<T>(n);
  const T rs = T(1) / std::sqrt(var + static_cast<T>(1e-5));
#pragma omp simd
  for (int64_t c = 0; c < n; ++c) {
    x[c] = w.gamma(0, c) * (x[c] - mu) * rs + w.beta(0, c);
  }
}

/// Multi-head scaled-dot attention of one query row against cached keys and
/// values (Lk rows of d_model scalars, head columns fused side by side).
/// Writes the fused context row (pre-W_O) into ctx.
template <typename T>
void attend_row(const T* q, const T* keys, const T* values, int64_t lk,
                int64_t d_model, int64_t d_head, T* ctx,
                std::vector<T>& scores) {
  const int64_t n_heads = d_model / d_head;
  const T inv_sqrt_dk = T(1) / std::sqrt(static_cast<T>(d_head));
  std::fill(ctx, ctx + d_model, T(0));
  scores.resize(static_cast<size_t>(lk));
  for (int64_t h = 0; h < n_heads; ++h) {
    const int64_t ho = h * d_head;
    for (int64_t j = 0; j < lk; ++j) {
      scores[static_cast<size_t>(j)] =
          dot_row(q + ho, keys + j * d_model + ho, d_head) * inv_sqrt_dk;
    }
    softmax_row(scores.data(), lk);
    for (int64_t p = 0; p < lk; ++p) {
      const T a = scores[static_cast<size_t>(p)];
      const T* vrow = values + p * d_model + ho;
#pragma omp simd
      for (int64_t c = 0; c < d_head; ++c) ctx[ho + c] += a * vrow[c];
    }
  }
}

/// Full-sequence multi-head attention (encoder self-attention; decoder
/// self-attention always runs incrementally through Session, so there is no
/// causal variant here).  Queries from `q_src`, keys/values from `kv_src`;
/// returns the attention output (L, d_model) after the fused W_O projection
/// and bias.  Each query row goes through the same attend_row kernel the
/// decoder Session uses — one copy of the bit-identity-critical loop.
template <typename T>
BasicTensor<T> attention_full(
    const BasicTensor<T>& q_src, const BasicTensor<T>& kv_src,
    const AttentionWeights<BasicTensor<T>, PanelMatrix<T>>& w,
    int64_t d_head) {
  const int64_t lq = q_src.rows(), lk = kv_src.rows(), d_model = w.wq.cols();
  BasicTensor<T> q = project_all(q_src, w.wq);
  const BasicTensor<T> k = project_all(kv_src, w.wk);
  const BasicTensor<T> v = project_all(kv_src, w.wv);

  BasicTensor<T> ctx(lq, d_model);
  std::vector<T> scores(static_cast<size_t>(lk));
  for (int64_t i = 0; i < lq; ++i) {
    attend_row(&q(i, 0), k.data().data(), v.data().data(), lk, d_model, d_head,
               &ctx(i, 0), scores);
  }
  BasicTensor<T> out = project_all(ctx, w.wo);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.bo);
  return out;
}

/// Position-wise FFN over all rows: relu(x W_in + b_in) W_out + b_out.
template <typename T>
BasicTensor<T> ffn_full(
    const BasicTensor<T>& x,
    const FeedForwardWeights<BasicTensor<T>, PanelMatrix<T>>& w) {
  BasicTensor<T> h = project_all(x, w.w_in);
  for (int64_t r = 0; r < h.rows(); ++r) add_bias_row(&h(r, 0), w.b_in);
  for (T& v : h.data()) v = v > T(0) ? v : T(0);
  BasicTensor<T> out = project_all(h, w.w_out);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.b_out);
  return out;
}

/// Encoder pass: embedding+positional rows, then per-layer self-attention /
/// norm / FFN / norm.
template <typename T>
BasicTensor<T> encode_impl(const std::vector<TokenId>& src,
                           const TierWeights<T>& w,
                           const TransformerConfig& cfg, int64_t d_head) {
  if (src.empty()) {
    throw InvalidArgument("InferenceEngine::encode: empty input");
  }
  const int64_t len = static_cast<int64_t>(src.size());
  if (len > cfg.max_len) {
    throw InvalidArgument(
        "InferenceEngine::encode: input length " + std::to_string(len) +
        " exceeds the positional table (max_len " + std::to_string(cfg.max_len) +
        "); re-train with a larger max_len or shorten the input");
  }
  const T sqrt_d = std::sqrt(static_cast<T>(cfg.d_model));
  BasicTensor<T> x(len, cfg.d_model);
  for (int64_t i = 0; i < len; ++i) {
    const TokenId id = src[static_cast<size_t>(i)];
    if (id < 0 || id >= w.src_embed.rows()) {
      throw InvalidArgument("InferenceEngine::encode: token id out of range");
    }
#pragma omp simd
    for (int64_t c = 0; c < cfg.d_model; ++c) {
      x(i, c) = w.src_embed(id, c) * sqrt_d + w.pos(i, c);
    }
  }
  for (const auto& layer : w.encoder) {
    const BasicTensor<T> attn = attention_full(x, x, layer.self, d_head);
    for (int64_t i = 0; i < x.size(); ++i) x.at(i) += attn.at(i);
    for (int64_t r = 0; r < len; ++r) {
      layer_norm_row(&x(r, 0), cfg.d_model, layer.norm1);
    }
    const BasicTensor<T> ff = ffn_full(x, layer.ffn);
    for (int64_t i = 0; i < x.size(); ++i) x.at(i) += ff.at(i);
    for (int64_t r = 0; r < len; ++r) {
      layer_norm_row(&x(r, 0), cfg.d_model, layer.norm2);
    }
  }
  return x;
}

/// One tier's weights: a field-by-field copy of the model's layout, each
/// weight converted to the tier's scalar (float32 rounds to nearest) and
/// each projection matrix packed into column panels, one weight per task on
/// `pool`.
template <typename T>
TierWeights<T> snapshot(const Transformer& model, par::ThreadPool& pool) {
  TierWeights<T> w;
  w.encoder.resize(model.weights().encoder.size());
  w.decoder.resize(model.weights().decoder.size());
  std::vector<std::function<void()>> copies;
  for_each_weight(
      [&copies](auto& dst, const Var& src) {
        copies.emplace_back([&dst, &src] {
          dst = std::remove_reference_t<decltype(dst)>::from(src->value);
        });
      },
      w, model.weights());
  pool.parallel_for_each(copies.size(), [&copies](size_t i) { copies[i](); });
  w.pos = BasicTensor<T>::from(model.positional().table());
  return w;
}

}  // namespace

InferenceEngine::InferenceEngine(const Transformer& model,
                                 par::ThreadPool& pool)
    : cfg_(model.config()),
      d_head_(cfg_.d_model / cfg_.n_heads),
      f64_(snapshot<double>(model, pool)),
      f32_(snapshot<float>(model, pool)) {}

Tensor InferenceEngine::encode(const std::vector<TokenId>& src) const {
  return encode_impl(src, f64_, cfg_, d_head_);
}

TensorF InferenceEngine::encode_f32(const std::vector<TokenId>& src) const {
  return encode_impl(src, f32_, cfg_, d_head_);
}

InferenceEngine::Session::Session(const InferenceEngine& engine,
                                  const std::vector<TokenId>& src,
                                  Precision precision)
    : eng_(engine),
      precision_(
          validated_precision(precision, "InferenceEngine::Session")),
      logits_(1, engine.cfg_.vocab_size) {
  if (precision_ == Precision::kDouble) {
    start(f64_, engine.f64_, src);
  } else {
    start(f32_, engine.f32_, src);
  }
}

template <typename T>
void InferenceEngine::Session::start(State<T>& s, const TierWeights<T>& w,
                                     const std::vector<TokenId>& src) {
  const size_t layers = w.decoder.size();
  const size_t d = static_cast<size_t>(eng_.cfg_.d_model);
  s.memory = encode_impl(src, w, eng_.cfg_, eng_.d_head_);
  s.cross_k.resize(layers);
  s.cross_v.resize(layers);
  s.self_k.resize(layers);
  s.self_v.resize(layers);
  s.x.resize(d);
  s.row.resize(d);
  s.ctx.resize(d);
  s.out.resize(d);
  s.ff.resize(static_cast<size_t>(eng_.cfg_.d_ff));
  s.logits.resize(static_cast<size_t>(eng_.cfg_.vocab_size));
  for (size_t l = 0; l < layers; ++l) {
    // The reference recomputes K/V from the (fixed) memory every step; the
    // values never change, so computing them once per request is exact.
    s.cross_k[l] = project_all(s.memory, w.decoder[l].cross.wk);
    s.cross_v[l] = project_all(s.memory, w.decoder[l].cross.wv);
  }
}

std::exception_ptr InferenceEngine::Session::refusal(TokenId token) const {
  const TransformerConfig& cfg = eng_.cfg_;
  if (length_ + 1 > cfg.max_len) {
    return std::make_exception_ptr(InvalidArgument(
        "InferenceEngine::Session::step: decoder length " +
        std::to_string(length_ + 1) + " exceeds the positional table (max_len " +
        std::to_string(cfg.max_len) + ")"));
  }
  if (token < 0 || token >= cfg.vocab_size) {
    return std::make_exception_ptr(InvalidArgument(
        "InferenceEngine::Session::step: token id out of range"));
  }
  return nullptr;
}

/// Queues the checked rows of one group step and advances them kTileRows at
/// a time.  Every row must belong to one engine and one tier.
class InferenceEngine::Session::Tile {
 public:
  void add(Session& session, TokenId token) {
    sessions_[size_] = &session;
    tokens_[size_] = token;
    if (++size_ == kTileRows) flush();
  }

  /// Steps the rows still queued and counts the group step, if any row
  /// stepped.
  void finish() {
    flush();
    if (stepped_) STAT_COUNTER("ml.engine.group_steps");
  }

 private:
  void flush() {
    if (size_ == 0) return;
    const std::span<Session* const> tile(sessions_.data(), size_);
    const std::span<const TokenId> tokens(tokens_.data(), size_);
    if (sessions_[0]->precision_ == Precision::kDouble) {
      advance<double>(tile, tokens);
    } else {
      advance<float>(tile, tokens);
    }
    size_ = 0;
    stepped_ = true;
  }

  std::array<Session*, kTileRows> sessions_{};
  std::array<TokenId, kTileRows> tokens_{};
  size_t size_ = 0;
  bool stepped_ = false;
};

const Tensor& InferenceEngine::Session::step(TokenId token) {
  if (std::exception_ptr error = refusal(token)) std::rethrow_exception(error);
  Tile tile;
  tile.add(*this, token);
  tile.finish();
  return logits_;
}

template <typename T>
void InferenceEngine::Session::advance(std::span<Session* const> tile,
                                       std::span<const TokenId> tokens) {
  const InferenceEngine& eng = tile[0]->eng_;
  const TierWeights<T>& w = of_tier<T>(eng.f64_, eng.f32_);
  const int64_t d = eng.cfg_.d_model;
  const T sqrt_d = std::sqrt(static_cast<T>(d));
  const size_t rows = tile.size();
  std::array<State<T>*, kTileRows> st{};
  TileRows<T> x{}, row{}, ctx{}, out{}, ff{}, logits{};
  for (size_t r = 0; r < rows; ++r) {
    st[r] = &of_tier<T>(tile[r]->f64_, tile[r]->f32_);
    x[r] = st[r]->x.data();
    row[r] = st[r]->row.data();
    ctx[r] = st[r]->ctx.data();
    out[r] = st[r]->out.data();
    ff[r] = st[r]->ff.data();
    logits[r] = st[r]->logits.data();
    const int64_t pos = tile[r]->length_;
    for (int64_t c = 0; c < d; ++c) {
      x[r][c] = w.tgt_embed(tokens[r], c) * sqrt_d + w.pos(pos, c);
    }
  }
  const auto project_tile = [rows](const TileRows<T>& in,
                                   const PanelMatrix<T>& m,
                                   const TileRows<T>& out) {
    project<T>({in.data(), rows}, m, {out.data(), rows});
  };
  const auto add_norm = [&](const BasicTensor<T>& bias,
                            const LayerNormWeights<BasicTensor<T>>& norm) {
    for (size_t r = 0; r < rows; ++r) {
      add_bias_row(out[r], bias);
      for (int64_t c = 0; c < d; ++c) x[r][c] += out[r][c];
      layer_norm_row(x[r], d, norm);
    }
  };

  for (size_t l = 0; l < w.decoder.size(); ++l) {
    const auto& layer = w.decoder[l];

    // Masked self-attention: project this position's K/V once, append to the
    // cache, attend the query against every cached position.  The causal mask
    // is implicit — the cache only holds positions <= this one.
    project_tile(x, layer.self.wk, row);
    for (size_t r = 0; r < rows; ++r) {
      st[r]->self_k[l].insert(st[r]->self_k[l].end(), row[r], row[r] + d);
    }
    project_tile(x, layer.self.wv, row);
    for (size_t r = 0; r < rows; ++r) {
      st[r]->self_v[l].insert(st[r]->self_v[l].end(), row[r], row[r] + d);
    }
    project_tile(x, layer.self.wq, row);
    for (size_t r = 0; r < rows; ++r) {
      attend_row(row[r], st[r]->self_k[l].data(), st[r]->self_v[l].data(),
                 tile[r]->length_ + 1, d, eng.d_head_, ctx[r], st[r]->scores);
    }
    project_tile(ctx, layer.self.wo, out);
    add_norm(layer.self.bo, layer.norm1);

    // Cross-attention against the precomputed memory K/V.
    project_tile(x, layer.cross.wq, row);
    for (size_t r = 0; r < rows; ++r) {
      attend_row(row[r], st[r]->cross_k[l].data().data(),
                 st[r]->cross_v[l].data().data(), st[r]->memory.rows(), d,
                 eng.d_head_, ctx[r], st[r]->scores);
    }
    project_tile(ctx, layer.cross.wo, out);
    add_norm(layer.cross.bo, layer.norm2);

    // Position-wise FFN.
    project_tile(x, layer.ffn.w_in, ff);
    for (size_t r = 0; r < rows; ++r) {
      add_bias_row(ff[r], layer.ffn.b_in);
      for (T& v : st[r]->ff) v = v > T(0) ? v : T(0);
    }
    project_tile(ff, layer.ffn.w_out, out);
    add_norm(layer.ffn.b_out, layer.norm3);
  }

  project_tile(x, w.out_w, logits);
  for (size_t r = 0; r < rows; ++r) {
    add_bias_row(logits[r], w.out_b);
    // Widening float logits is monotone and tie-preserving, so argmax over
    // the double row equals argmax over the float row and every decode loop
    // stays tier-agnostic.
    std::copy(st[r]->logits.begin(), st[r]->logits.end(),
              tile[r]->logits_.data().begin());
    ++tile[r]->length_;
  }
}

TokenId argmax_token(const Tensor& logits) {
  TokenId best = 0;
  double best_score = -1e300;
  for (int64_t c = 0; c < logits.cols(); ++c) {
    if (logits(0, c) > best_score) {
      best_score = logits(0, c);
      best = static_cast<TokenId>(c);
    }
  }
  return best;
}

bool InferenceEngine::Session::greedy_step(std::vector<TokenId>& tokens,
                                           int64_t max_tokens) {
  GreedyRow row(this, &tokens, max_tokens);
  greedy_step_group({&row, 1});
  if (row.error) std::rethrow_exception(row.error);
  return row.live;
}

void InferenceEngine::Session::greedy_step_group(std::span<GreedyRow> rows) {
  const Session* first = nullptr;
  for (const GreedyRow& r : rows) {
    if (!r.live) continue;
    if (first == nullptr) first = r.session;
    if (&r.session->eng_ != &first->eng_ ||
        r.session->precision_ != first->precision_) {
      throw InvalidArgument(
          "InferenceEngine::Session::greedy_step_group: a group's sessions "
          "must share one engine and one tier");
    }
  }
  const auto fed = [](const GreedyRow& r) {
    return r.tokens->empty() ? Vocabulary::kBos : r.tokens->back();
  };
  Tile tile;
  for (GreedyRow& r : rows) {
    if (!r.live) continue;
    r.error = r.session->refusal(fed(r));
    if (r.error) {
      r.live = false;
    } else {
      tile.add(*r.session, fed(r));
    }
  }
  tile.finish();
  for (GreedyRow& r : rows) {
    if (!r.live) continue;
    const TokenId best = argmax_token(r.session->logits_);
    if (best == Vocabulary::kEos) {
      r.live = false;
      continue;
    }
    r.tokens->push_back(best);
    // Same step clamp as Transformer::greedy_decode: the decoder input at
    // step s holds s+1 tokens, so max_len steps keep every position in range.
    r.live = static_cast<int64_t>(r.tokens->size()) <
             std::min(r.max_tokens, r.session->eng_.cfg_.max_len);
  }
}

std::vector<TokenId> InferenceEngine::greedy_decode(
    const std::vector<TokenId>& src, int64_t max_len,
    Precision precision) const {
  if (max_len <= 0) {
    throw InvalidArgument(
        "InferenceEngine::greedy_decode: max_tokens must be positive, got " +
        std::to_string(max_len) +
        " (a zero token budget would silently decode nothing)");
  }
  Session session(*this, src, precision);
  std::vector<TokenId> out;
  while (session.greedy_step(out, max_len)) {
  }
  return out;
}

}  // namespace ota::ml
