// The encoder-decoder transformer (paper Section III-C).
//
// Architecture follows Vaswani et al. with the paper's adaptation knobs: the
// embedding width and head count are configurable (the paper uses 720/12 on a
// GPU; the CPU-scale benchmark defaults are smaller), the loss is weighted
// cross-entropy with extra weight on numeric tokens, and decoding is greedy.
#pragma once

#include <iosfwd>
#include <vector>

#include "ml/layers.hpp"
#include "nlp/vocabulary.hpp"

namespace ota::ml {

struct TransformerConfig {
  int64_t vocab_size = 0;   ///< set from the tokenizer
  int64_t d_model = 64;     ///< paper: 720
  int64_t n_heads = 4;      ///< paper: 12
  int64_t n_layers = 2;     ///< encoder and decoder stack depth (paper: 6)
  int64_t d_ff = 128;       ///< position-wise FFN width
  int64_t max_len = 1024;   ///< positional table size
  double dropout = 0.1;
  uint64_t seed = 1234;
};

class Transformer {
 public:
  explicit Transformer(const TransformerConfig& config);

  const TransformerConfig& config() const { return cfg_; }
  /// Every weight, in the layout's order (for_each_weight, ml/layers.hpp).
  const std::vector<Var>& parameters() const { return params_; }
  /// The weights by field; InferenceEngine compiles its tiers from these.
  const ModelWeights<Var>& weights() const { return w_; }
  const PositionalEncoding& positional() const { return pos_; }

  /// Encoder memory for a source token sequence.
  Var encode(const std::vector<nlp::TokenId>& src, bool training, Rng& rng) const;

  /// Decoder logits (L_tgt, vocab) given memory and decoder input tokens.
  Var decode(const Var& memory, const std::vector<nlp::TokenId>& tgt_in,
             bool training, Rng& rng) const;

  /// Teacher-forced training loss for one (src, tgt) pair.  The target is
  /// consumed as  in: <bos> t1..tn   out: t1..tn <eos>, with per-token weights
  /// (numeric tokens get the paper's 1.2x weight by default upstream).
  Var loss(const std::vector<nlp::TokenId>& src,
           const std::vector<nlp::TokenId>& tgt,
           const std::vector<double>& target_weights, Rng& rng,
           bool training = true) const;

  /// Greedy autoregressive decoding until <eos> or max_len.  `max_len` is
  /// clamped to the positional table size (config().max_len) so a generous
  /// token budget can never index past the table; an encoder input longer
  /// than the table still throws (there is no way to shorten it for the
  /// caller).  This Var-based path is the training/reference implementation;
  /// production decoding goes through ml::InferenceEngine (infer.hpp), which
  /// is property-tested to emit bit-identical tokens.
  std::vector<nlp::TokenId> greedy_decode(const std::vector<nlp::TokenId>& src,
                                          int64_t max_len) const;

  /// Overwrites every parameter value with `other`'s (architectures must
  /// match).  The data-parallel trainer re-syncs its per-worker replicas
  /// from the master model through this after each optimizer step.
  void copy_parameters_from(const Transformer& other);

  /// Binary weight serialization: the tag 'otatfmr2', then every parameter
  /// in parameters() order.  load() requires a matching architecture and
  /// refuses any other tag, including the per-head 'otatfmr1' layout.
  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Total number of scalar parameters.
  int64_t parameter_count() const;

 private:
  TransformerConfig cfg_;
  ModelWeights<Var> w_;
  std::vector<Var> params_;  ///< w_'s fields in for_each_weight order
  PositionalEncoding pos_;
  mutable Rng inference_rng_{0};  // dropout disabled at inference; unused draws
};

}  // namespace ota::ml
