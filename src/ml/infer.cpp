#include "ml/infer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <type_traits>

#include "par/thread_pool.hpp"

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

// Every loop in this file replicates the accumulation order of the reference
// Var ops (ml/ops.cpp) and of the NN GEMM kernel (ml/tensor.cpp), so that the
// engine's floating-point results are bit-identical to the autograd path's.
// The row kernels also skip multipliers that are exactly zero, which the
// reference does not; a zero product never changes a finite sum that starts
// at +0.  Do not "clean up" loop orders or hoist terms here without
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

/// out = x * W for one row x (length k) in the NN GEMM kernel's order
/// (p-outer / j-inner), skipping zero multipliers.
template <typename T>
void project_row(const T* x, const BasicTensor<T>& w, T* out) {
  const int64_t k = w.rows(), n = w.cols();
  std::fill(out, out + n, T(0));
  for (int64_t p = 0; p < k; ++p) {
    const T xv = x[p];
    if (xv == T(0)) continue;
    const T* wrow = w.data().data() + p * n;
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) out[j] += xv * wrow[j];
  }
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
void layer_norm_row(T* x, int64_t n, const LayerNormWeights<T>& w) {
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
      if (a == T(0)) continue;  // zero multiplier (see the top of the file)
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
BasicTensor<T> attention_full(const BasicTensor<T>& q_src,
                              const BasicTensor<T>& kv_src,
                              const FusedAttentionWeights<T>& w,
                              int64_t d_head) {
  const int64_t lq = q_src.rows(), lk = kv_src.rows(), d_model = w.wq.cols();
  BasicTensor<T> q, k, v;
  matmul_into(q_src, w.wq, q);
  matmul_into(kv_src, w.wk, k);
  matmul_into(kv_src, w.wv, v);

  BasicTensor<T> ctx(lq, d_model);
  std::vector<T> scores(static_cast<size_t>(lk));
  for (int64_t i = 0; i < lq; ++i) {
    attend_row(&q(i, 0), k.data().data(), v.data().data(), lk, d_model, d_head,
               &ctx(i, 0), scores);
  }
  BasicTensor<T> out;
  matmul_into(ctx, w.wo, out);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.bo);
  return out;
}

/// Position-wise FFN over all rows: relu(x W_in + b_in) W_out + b_out.
template <typename T>
BasicTensor<T> ffn_full(const BasicTensor<T>& x, const FeedForwardWeights<T>& w) {
  BasicTensor<T> h;
  matmul_into(x, w.w_in, h);
  for (int64_t r = 0; r < h.rows(); ++r) add_bias_row(&h(r, 0), w.b_in);
  for (T& v : h.data()) v = v > T(0) ? v : T(0);
  BasicTensor<T> out;
  matmul_into(h, w.w_out, out);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.b_out);
  return out;
}

/// Encoder pass: embedding+positional rows, then per-layer self-attention /
/// norm / FFN / norm.
template <typename T>
BasicTensor<T> encode_impl(const std::vector<TokenId>& src,
                           const ModelWeights<T>& w,
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
  for (const EncoderLayerWeights<T>& layer : w.encoder) {
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

/// Weight lookup by registry name, so the snapshot survives reordering of
/// the registry as long as names stay stable.
class WeightMap {
 public:
  explicit WeightMap(const Transformer& model) {
    const auto& params = model.parameters();
    const auto& names = model.parameter_names();
    for (size_t i = 0; i < params.size(); ++i) {
      by_name_[names[i]] = &params[i]->value;
    }
  }

  const Tensor& get(const std::string& name) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw InvalidArgument("InferenceEngine: missing parameter '" + name +
                            "' in the transformer registry");
    }
    return *it->second;
  }

  /// The named weight converted to a tier's scalar.
  template <typename T>
  BasicTensor<T> copy(const std::string& name) const {
    return BasicTensor<T>::from(get(name));
  }

 private:
  std::map<std::string, const Tensor*> by_name_;
};

/// Concatenates the per-head (d_model, d_head) projections of `site` into one
/// (d_model, d_model) matrix, head h occupying columns [h*d_head, ...).
template <typename T>
BasicTensor<T> fuse_heads(const WeightMap& w, const std::string& site,
                          const char* which, int64_t d_model, int64_t d_head) {
  const int64_t n_heads = d_model / d_head;
  BasicTensor<T> fused(d_model, d_model);
  for (int64_t h = 0; h < n_heads; ++h) {
    const Tensor& head =
        w.get(site + ".h" + std::to_string(h) + "." + which);
    if (head.rows() != d_model || head.cols() != d_head) {
      throw InvalidArgument("InferenceEngine: unexpected head shape at " + site);
    }
    for (int64_t r = 0; r < d_model; ++r) {
      for (int64_t c = 0; c < d_head; ++c) {
        fused(r, h * d_head + c) = static_cast<T>(head(r, c));
      }
    }
  }
  return fused;
}

template <typename T>
FusedAttentionWeights<T> snapshot_attention(const WeightMap& w,
                                            const std::string& site,
                                            int64_t d_model, int64_t d_head) {
  return {fuse_heads<T>(w, site, "wq", d_model, d_head),
          fuse_heads<T>(w, site, "wk", d_model, d_head),
          fuse_heads<T>(w, site, "wv", d_model, d_head),
          w.copy<T>(site + ".wo"), w.copy<T>(site + ".bo")};
}

template <typename T>
FeedForwardWeights<T> snapshot_ffn(const WeightMap& w, const std::string& site) {
  return {w.copy<T>(site + ".in.w"), w.copy<T>(site + ".in.b"),
          w.copy<T>(site + ".out.w"), w.copy<T>(site + ".out.b")};
}

template <typename T>
LayerNormWeights<T> snapshot_norm(const WeightMap& w, const std::string& site) {
  return {w.copy<T>(site + ".gamma"), w.copy<T>(site + ".beta")};
}

/// One tier's weight snapshot, taken straight from the double registry
/// (float32 rounds each weight to nearest after the head fusing, so both
/// tiers share one layout).
template <typename T>
ModelWeights<T> snapshot(const Transformer& model, int64_t d_head) {
  const TransformerConfig& cfg = model.config();
  const WeightMap w(model);
  ModelWeights<T> m;
  m.src_embed = w.copy<T>("src_embed");
  m.tgt_embed = w.copy<T>("tgt_embed");
  m.pos = BasicTensor<T>::from(model.positional().table());
  m.out_w = w.copy<T>("out.w");
  m.out_b = w.copy<T>("out.b");
  for (int64_t l = 0; l < cfg.n_layers; ++l) {
    const std::string enc = "enc" + std::to_string(l);
    m.encoder.push_back(
        {snapshot_attention<T>(w, enc + ".self", cfg.d_model, d_head),
         snapshot_ffn<T>(w, enc + ".ffn"), snapshot_norm<T>(w, enc + ".norm1"),
         snapshot_norm<T>(w, enc + ".norm2")});

    const std::string dec = "dec" + std::to_string(l);
    m.decoder.push_back(
        {snapshot_attention<T>(w, dec + ".self", cfg.d_model, d_head),
         snapshot_attention<T>(w, dec + ".cross", cfg.d_model, d_head),
         snapshot_ffn<T>(w, dec + ".ffn"), snapshot_norm<T>(w, dec + ".norm1"),
         snapshot_norm<T>(w, dec + ".norm2"),
         snapshot_norm<T>(w, dec + ".norm3")});
  }
  return m;
}

}  // namespace

InferenceEngine::InferenceEngine(const Transformer& model)
    : cfg_(model.config()),
      d_head_(cfg_.d_model / cfg_.n_heads),
      f64_(snapshot<double>(model, d_head_)),
      f32_(snapshot<float>(model, d_head_)) {}

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
void InferenceEngine::Session::start(State<T>& s, const ModelWeights<T>& w,
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
  s.logits.resize(static_cast<size_t>(eng_.cfg_.vocab_size));
  for (size_t l = 0; l < layers; ++l) {
    // The reference recomputes K/V from the (fixed) memory every step; the
    // values never change, so computing them once per request is exact.
    matmul_into(s.memory, w.decoder[l].cross.wk, s.cross_k[l]);
    matmul_into(s.memory, w.decoder[l].cross.wv, s.cross_v[l]);
  }
}

const Tensor& InferenceEngine::Session::step(TokenId token) {
  const TransformerConfig& cfg = eng_.cfg_;
  if (length_ + 1 > cfg.max_len) {
    throw InvalidArgument(
        "InferenceEngine::Session::step: decoder length " +
        std::to_string(length_ + 1) + " exceeds the positional table (max_len " +
        std::to_string(cfg.max_len) + ")");
  }
  if (token < 0 || token >= cfg.vocab_size) {
    throw InvalidArgument("InferenceEngine::Session::step: token id out of range");
  }
  if (precision_ == Precision::kDouble) {
    advance(f64_, eng_.f64_, token);
  } else {
    advance(f32_, eng_.f32_, token);
  }
  ++length_;
  return logits_;
}

template <typename T>
void InferenceEngine::Session::advance(State<T>& s, const ModelWeights<T>& w,
                                       TokenId token) {
  const int64_t d = eng_.cfg_.d_model;
  const T sqrt_d = std::sqrt(static_cast<T>(d));
  std::vector<T>& x = s.x;
  std::vector<T>& row = s.row;
  std::vector<T>& ctx = s.ctx;
  std::vector<T>& out = s.out;
  std::vector<T>& ff = s.ff;
  for (int64_t c = 0; c < d; ++c) {
    x[static_cast<size_t>(c)] =
        w.tgt_embed(token, c) * sqrt_d + w.pos(length_, c);
  }

  for (size_t l = 0; l < w.decoder.size(); ++l) {
    const DecoderLayerWeights<T>& layer = w.decoder[l];

    // Masked self-attention: project this position's K/V once, append to the
    // cache, attend the query against every cached position.  The causal mask
    // is implicit — the cache only holds positions <= this one.
    project_row(x.data(), layer.self.wk, row.data());
    s.self_k[l].insert(s.self_k[l].end(), row.begin(), row.end());
    project_row(x.data(), layer.self.wv, row.data());
    s.self_v[l].insert(s.self_v[l].end(), row.begin(), row.end());
    project_row(x.data(), layer.self.wq, row.data());
    attend_row(row.data(), s.self_k[l].data(), s.self_v[l].data(), length_ + 1,
               d, eng_.d_head_, ctx.data(), s.scores);
    project_row(ctx.data(), layer.self.wo, out.data());
    add_bias_row(out.data(), layer.self.bo);
    for (int64_t c = 0; c < d; ++c) x[static_cast<size_t>(c)] += out[static_cast<size_t>(c)];
    layer_norm_row(x.data(), d, layer.norm1);

    // Cross-attention against the precomputed memory K/V.
    project_row(x.data(), layer.cross.wq, row.data());
    attend_row(row.data(), s.cross_k[l].data().data(),
               s.cross_v[l].data().data(), s.memory.rows(), d, eng_.d_head_,
               ctx.data(), s.scores);
    project_row(ctx.data(), layer.cross.wo, out.data());
    add_bias_row(out.data(), layer.cross.bo);
    for (int64_t c = 0; c < d; ++c) x[static_cast<size_t>(c)] += out[static_cast<size_t>(c)];
    layer_norm_row(x.data(), d, layer.norm2);

    // Position-wise FFN.
    ff.resize(static_cast<size_t>(layer.ffn.w_in.cols()));
    project_row(x.data(), layer.ffn.w_in, ff.data());
    add_bias_row(ff.data(), layer.ffn.b_in);
    for (T& v : ff) v = v > T(0) ? v : T(0);
    project_row(ff.data(), layer.ffn.w_out, out.data());
    add_bias_row(out.data(), layer.ffn.b_out);
    for (int64_t c = 0; c < d; ++c) x[static_cast<size_t>(c)] += out[static_cast<size_t>(c)];
    layer_norm_row(x.data(), d, layer.norm3);
  }

  project_row(x.data(), w.out_w, s.logits.data());
  add_bias_row(s.logits.data(), w.out_b);
  // Widening float logits is monotone and tie-preserving, so argmax over the
  // double row equals argmax over the float row and every decode loop stays
  // tier-agnostic.
  std::copy(s.logits.begin(), s.logits.end(), logits_.data().begin());
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

std::vector<TokenId> InferenceEngine::greedy_decode(
    const std::vector<TokenId>& src, int64_t max_len,
    Precision precision) const {
  Session session(*this, src, precision);
  // Same step clamp as Transformer::greedy_decode: the decoder input at step
  // s holds s+1 tokens, so cfg_.max_len steps keep every position in range.
  const int64_t steps = std::min(max_len, cfg_.max_len);
  std::vector<TokenId> out;
  TokenId prev = Vocabulary::kBos;
  for (int64_t step = 0; step < steps; ++step) {
    const TokenId best = argmax_token(session.step(prev));
    if (best == Vocabulary::kEos) break;
    out.push_back(best);
    prev = best;
  }
  return out;
}

std::vector<std::vector<TokenId>> InferenceEngine::greedy_decode_batch(
    const std::vector<std::vector<TokenId>>& srcs, int64_t max_len,
    par::ThreadPool& pool, Precision precision) const {
  std::vector<std::vector<TokenId>> out(srcs.size());
  if (srcs.empty()) return out;
  if (max_len <= 0) {
    throw InvalidArgument(
        "InferenceEngine::greedy_decode_batch: max_tokens must be positive, "
        "got " + std::to_string(max_len) +
        " (a zero token budget would silently decode nothing)");
  }
  validated_precision(precision, "InferenceEngine::greedy_decode_batch");
  // Requests are independent and share only the immutable engine, so the
  // result is bit-identical for any pool size.
  pool.parallel_for(srcs.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = greedy_decode(srcs[i], max_len, precision);
    }
  });
  return out;
}

std::vector<std::vector<TokenId>> InferenceEngine::greedy_decode_batch(
    const std::vector<std::vector<TokenId>>& srcs, int64_t max_len,
    int threads, Precision precision) const {
  if (threads <= 0) {
    // Default path: the persistent process-wide pool, so back-to-back batch
    // calls reuse one set of workers instead of spawning a pool per call.
    return greedy_decode_batch(srcs, max_len, par::global_pool(), precision);
  }
  // Explicit worker count: a dedicated pool of that size, never larger than
  // the batch (a batch of one stays inline).
  par::ThreadPool pool(
      std::min(threads, static_cast<int>(std::max<size_t>(srcs.size(), 1))));
  return greedy_decode_batch(srcs, max_len, pool, precision);
}

}  // namespace ota::ml
