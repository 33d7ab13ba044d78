// Autograd-free batched inference engine for the trained transformer.
//
// Transformer (transformer.hpp) is the mutable build/train representation:
// every forward constructs a Var graph so gradients can flow.  Greedy decoding
// through it re-runs the full decoder over the whole prefix at every step —
// O(L^2) work per token, O(L^3) per sequence — and allocates a throwaway
// autograd graph each time.  InferenceEngine is the lean evaluation
// representation compiled once from a trained model:
//
//  * compiling is a typed copy of the model's own weight layout
//    (ml/layers.hpp) into plain tensors of each tier's scalar, so every
//    attention site keeps its fused d_model x d_model Q/K/V projections;
//  * encode runs once per request and the cross-attention K/V of every
//    decoder layer are precomputed from the memory;
//  * decoding is incremental through a per-layer KV cache, so each step is
//    one-row work — O(L) per token, O(L^2) per sequence;
//  * greedy_decode_batch decodes many requests concurrently on an ota::par
//    thread pool (requests share only the immutable engine, so results are
//    bit-identical for any pool width).
//
// Numerical contract: the engine's greedy token output is IDENTICAL — token
// for token, bit for bit — to Transformer::greedy_decode.  Every loop here
// replicates the accumulation order of the reference ops over the same
// fused projections.  The engine's row kernels also skip multipliers that
// are exactly zero, which the reference GEMM does not; a zero product never
// changes a finite sum that starts at +0, and tests/test_infer.cpp checks
// the logits bit for bit on trained models.
//
// The float32 serving tier is the float instantiation of the same code: one
// templated weight copy and one templated step body serve both tiers.
#pragma once

#include <memory>
#include <vector>

#include "ml/precision.hpp"
#include "ml/transformer.hpp"
#include "par/thread_pool.hpp"

namespace ota::ml {

/// Greedy next-token choice over a (1, vocab) logits row: the lowest index
/// of the maximum value.  Session::greedy_step, the one greedy rule of every
/// decode path, picks its token here, so tie-breaking can never diverge.
nlp::TokenId argmax_token(const Tensor& logits);

/// One tier's compiled weights: the model's own layout (ml/layers.hpp) in
/// the tier's scalar, plus the positional table.
template <typename T>
struct TierWeights : ModelWeights<BasicTensor<T>> {
  BasicTensor<T> pos;  ///< (max_len, d_model) positions
};

class InferenceEngine {
 public:
  /// Copies the model's weights once per tier — double (the reference) and
  /// float32 — so both tiers are always available at decode time.  The
  /// engine keeps no reference to the Transformer; retraining or mutating
  /// it does not affect the engine.
  explicit InferenceEngine(const Transformer& model);

  const TransformerConfig& config() const { return cfg_; }

  /// Encoder memory (L, d_model); bit-identical to Transformer::encode at
  /// inference settings.  Throws InvalidArgument for an empty input or one
  /// longer than the positional table.
  Tensor encode(const std::vector<nlp::TokenId>& src) const;

  /// Float32-tier encoder memory: the same pass over the f32 snapshot.
  /// Exposed for the kernel-accuracy tests; the decode paths reach it
  /// through Session's precision argument.
  TensorF encode_f32(const std::vector<nlp::TokenId>& src) const;

  /// Greedy decode: a Session looped on greedy_step.  At Precision::kDouble
  /// (the default) the output is token-for-token identical to
  /// Transformer::greedy_decode (max_len is clamped to config().max_len the
  /// same way).  Precision::kFloat32 decodes through the f32 snapshot —
  /// deterministic run to run, and token-identical to the double tier on
  /// trained models (the agreement property bench_infer_tier and the test
  /// suites gate on).  Throws InvalidArgument when max_len <= 0 (decoding
  /// zero tokens is always a caller bug), before encoding anything.
  std::vector<nlp::TokenId> greedy_decode(
      const std::vector<nlp::TokenId>& src, int64_t max_len,
      Precision precision = Precision::kDouble) const;

  /// Decodes every request independently on `pool` through greedy_decode,
  /// so a non-empty batch throws what it throws.  Results are positionally
  /// aligned with `srcs` and bit-identical for any pool width, including an
  /// inline pool (at either precision tier).
  std::vector<std::vector<nlp::TokenId>> greedy_decode_batch(
      const std::vector<std::vector<nlp::TokenId>>& srcs, int64_t max_len,
      Precision precision = Precision::kDouble,
      par::ThreadPool& pool = par::global_pool()) const;

  /// Incremental decoding state for one request: the encoder memory, the
  /// precomputed cross-attention K/V of every decoder layer, and the growing
  /// self-attention KV cache.  step() feeds one token and returns the
  /// next-token logits row.  Exposed for tests (incremental-vs-full logits
  /// agreement) and for callers that need the logits, not just the argmax.
  class Session {
   public:
    /// `precision` selects the numeric tier for this session's whole decode
    /// (encode pass, KV caches, kernels).  The float32 tier's logits are
    /// widened into the double row step() returns, which preserves the
    /// argmax exactly (widening is monotone and tie-preserving), so every
    /// downstream decode loop is tier-agnostic.
    Session(const InferenceEngine& engine, const std::vector<nlp::TokenId>& src,
            Precision precision = Precision::kDouble);

    /// Feeds `token` at the next position and returns the logits (1, vocab)
    /// for the following token.  Throws InvalidArgument once the decoder
    /// length would exceed the positional table.
    const Tensor& step(nlp::TokenId token);

    /// The one greedy rule: feeds tokens.back() (<bos> while `tokens` is
    /// empty) and appends the argmax.  Returns false on <eos>, which is not
    /// appended, or once tokens.size() reaches min(max_tokens,
    /// config().max_len).  greedy_decode loops on it; DecodeScheduler calls
    /// it once per round per live request.
    bool greedy_step(std::vector<nlp::TokenId>& tokens, int64_t max_tokens);

    /// Number of tokens fed so far.
    int64_t length() const { return length_; }

    Precision precision() const { return precision_; }

   private:
    /// One tier's decode state: the encoder memory, the cross-attention K/V
    /// of every decoder layer (computed once), the self-attention KV cache
    /// (row-major, one d_model row appended per step) and scratch rows
    /// reused across steps (hot path: no per-token allocation).
    template <typename T>
    struct State {
      BasicTensor<T> memory;  ///< (L_src, d_model)
      std::vector<BasicTensor<T>> cross_k, cross_v;
      std::vector<std::vector<T>> self_k, self_v;
      std::vector<T> x, row, ctx, out, scores, ff, logits;
    };

    template <typename T>
    void start(State<T>& s, const TierWeights<T>& w,
               const std::vector<nlp::TokenId>& src);
    template <typename T>
    void advance(State<T>& s, const TierWeights<T>& w, nlp::TokenId token);

    const InferenceEngine& eng_;
    Precision precision_ = Precision::kDouble;
    /// Only the session's own tier is ever populated.
    State<double> f64_;
    State<float> f32_;
    Tensor logits_;  ///< (1, vocab); each step copies (f32: widens) into it
    int64_t length_ = 0;
  };

 private:
  TransformerConfig cfg_;
  int64_t d_head_ = 0;
  TierWeights<double> f64_;
  /// Half the memory traffic per decode step on the same layout.
  TierWeights<float> f32_;
};

}  // namespace ota::ml
