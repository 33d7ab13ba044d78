#include "ml/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

Transformer::Transformer(const TransformerConfig& config)
    : cfg_(config), pos_(config.max_len, config.d_model) {
  if (cfg_.vocab_size <= 0) {
    throw InvalidArgument("Transformer: vocab_size must be set");
  }
  Rng rng(cfg_.seed);
  w_.src_embed = parameter(Tensor::xavier(cfg_.vocab_size, cfg_.d_model, rng));
  w_.tgt_embed = parameter(Tensor::xavier(cfg_.vocab_size, cfg_.d_model, rng));
  for (int64_t l = 0; l < cfg_.n_layers; ++l) {
    w_.encoder.push_back(
        init_encoder_layer(cfg_.d_model, cfg_.n_heads, cfg_.d_ff, rng));
  }
  for (int64_t l = 0; l < cfg_.n_layers; ++l) {
    w_.decoder.push_back(
        init_decoder_layer(cfg_.d_model, cfg_.n_heads, cfg_.d_ff, rng));
  }
  w_.out_w = parameter(Tensor::xavier(cfg_.d_model, cfg_.vocab_size, rng));
  w_.out_b = parameter(Tensor(1, cfg_.vocab_size));
  for_each_weight([this](const Var& p) { params_.push_back(p); }, w_);
}

Var Transformer::encode(const std::vector<TokenId>& src, bool training,
                        Rng& rng) const {
  if (src.empty()) throw InvalidArgument("Transformer::encode: empty input");
  Var x = scale(embedding(w_.src_embed, src), std::sqrt(static_cast<double>(cfg_.d_model)));
  x = pos_.forward(x);
  x = dropout(x, cfg_.dropout, training, rng);
  for (const auto& layer : w_.encoder) {
    x = encoder_layer(layer, x, cfg_.n_heads, cfg_.dropout, training, rng);
  }
  return x;
}

Var Transformer::decode(const Var& memory, const std::vector<TokenId>& tgt_in,
                        bool training, Rng& rng) const {
  if (tgt_in.empty()) throw InvalidArgument("Transformer::decode: empty input");
  Var x = scale(embedding(w_.tgt_embed, tgt_in), std::sqrt(static_cast<double>(cfg_.d_model)));
  x = pos_.forward(x);
  x = dropout(x, cfg_.dropout, training, rng);
  for (const auto& layer : w_.decoder) {
    x = decoder_layer(layer, x, memory, cfg_.n_heads, cfg_.dropout, training,
                      rng);
  }
  return add_bias(matmul(x, w_.out_w), w_.out_b);
}

Var Transformer::loss(const std::vector<TokenId>& src,
                      const std::vector<TokenId>& tgt,
                      const std::vector<double>& target_weights, Rng& rng,
                      bool training) const {
  if (tgt.empty()) throw InvalidArgument("Transformer::loss: empty target");
  if (target_weights.size() != tgt.size() + 1) {
    throw InvalidArgument(
        "Transformer::loss: need one weight per target token plus <eos>");
  }
  // Teacher forcing: in = <bos> t1..tn, out = t1..tn <eos>.
  std::vector<TokenId> in{Vocabulary::kBos};
  in.insert(in.end(), tgt.begin(), tgt.end());
  std::vector<TokenId> out = tgt;
  out.push_back(Vocabulary::kEos);

  const Var memory = encode(src, training, rng);
  const Var logits = decode(memory, in, training, rng);
  return cross_entropy(logits, out, target_weights);
}

std::vector<TokenId> Transformer::greedy_decode(const std::vector<TokenId>& src,
                                                int64_t max_len) const {
  const Var memory = encode(src, /*training=*/false, inference_rng_);
  // The decoder input at step s holds s+1 tokens; clamping the step budget to
  // the positional-table size keeps every lookup in range.
  const int64_t steps = std::min(max_len, cfg_.max_len);
  std::vector<TokenId> out{Vocabulary::kBos};
  for (int64_t step = 0; step < steps; ++step) {
    const Var logits = decode(memory, out, /*training=*/false, inference_rng_);
    const int64_t last = logits->value.rows() - 1;
    TokenId best = 0;
    double best_score = -1e300;
    for (int64_t c = 0; c < logits->value.cols(); ++c) {
      if (logits->value(last, c) > best_score) {
        best_score = logits->value(last, c);
        best = static_cast<TokenId>(c);
      }
    }
    if (best == Vocabulary::kEos) break;
    out.push_back(best);
  }
  return {out.begin() + 1, out.end()};  // strip <bos>
}

void Transformer::copy_parameters_from(const Transformer& other) {
  const auto& src = other.params_;
  if (src.size() != params_.size()) {
    throw InvalidArgument("Transformer::copy_parameters_from: parameter count mismatch");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (!params_[i]->value.same_shape(src[i]->value)) {
      throw InvalidArgument("Transformer::copy_parameters_from: shape mismatch");
    }
    params_[i]->value = src[i]->value;
  }
}

/// Weight-stream tag: version 2 is the fused Q/K/V layout.
constexpr char kStreamTag[8] = {'o', 't', 'a', 't', 'f', 'm', 'r', '2'};

void Transformer::save(std::ostream& os) const {
  os.write(kStreamTag, sizeof kStreamTag);
  const int64_t n = static_cast<int64_t>(params_.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  for (const auto& p : params_) {
    const int64_t rows = p->value.rows(), cols = p->value.cols();
    os.write(reinterpret_cast<const char*>(&rows), sizeof rows);
    os.write(reinterpret_cast<const char*>(&cols), sizeof cols);
    os.write(reinterpret_cast<const char*>(p->value.data().data()),
             static_cast<std::streamsize>(sizeof(double) * p->value.data().size()));
  }
}

void Transformer::load(std::istream& is) {
  char tag[8];
  is.read(tag, sizeof tag);
  if (!is || !std::equal(tag, tag + sizeof tag, kStreamTag)) {
    throw InvalidArgument(
        "Transformer::load: not a fused-layout weight stream (expected tag "
        "'otatfmr2'); per-head 'otatfmr1' streams cannot be read, re-train "
        "the model");
  }
  int64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  if (n != static_cast<int64_t>(params_.size())) {
    throw InvalidArgument("Transformer::load: parameter count mismatch");
  }
  for (const auto& p : params_) {
    int64_t rows = 0, cols = 0;
    is.read(reinterpret_cast<char*>(&rows), sizeof rows);
    is.read(reinterpret_cast<char*>(&cols), sizeof cols);
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw InvalidArgument("Transformer::load: shape mismatch");
    }
    is.read(reinterpret_cast<char*>(p->value.data().data()),
            static_cast<std::streamsize>(sizeof(double) * p->value.data().size()));
    if (!is) throw InvalidArgument("Transformer::load: truncated file");
  }
}

int64_t Transformer::parameter_count() const {
  int64_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

}  // namespace ota::ml
