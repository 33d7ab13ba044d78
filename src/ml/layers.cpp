#include "ml/layers.hpp"

#include <cmath>

namespace ota::ml {

PositionalEncoding::PositionalEncoding(int64_t max_len, int64_t d_model)
    : table_(max_len, d_model) {
  // PE(pos, 2i) = sin(pos / 10000^(2i/d)); PE(pos, 2i+1) = cos(...).
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < d_model; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(d_model));
      table_(pos, i) = (i % 2 == 0) ? std::sin(angle) : std::cos(angle);
    }
  }
}

Var PositionalEncoding::forward(const Var& x) const {
  const int64_t len = x->value.rows();
  if (len > table_.rows()) {
    throw InvalidArgument("PositionalEncoding: sequence length " +
                          std::to_string(len) + " exceeds the positional table (max_len " +
                          std::to_string(table_.rows()) + "); re-train with a larger max_len or shorten the input");
  }
  Tensor pos(len, x->value.cols());
  for (int64_t r = 0; r < len; ++r) {
    for (int64_t c = 0; c < pos.cols(); ++c) pos(r, c) = table_(r, c);
  }
  return add(x, constant(std::move(pos)));
}

namespace {

// Braced lists evaluate their elements in order, so every init below draws
// from `rng` in field order.
AttentionWeights<Var> init_attention(int64_t d_model, int64_t n_heads,
                                     Rng& rng) {
  if (n_heads <= 0 || d_model % n_heads != 0) {
    throw InvalidArgument("init_attention: d_model must divide by heads");
  }
  const int64_t d_head = d_model / n_heads;
  Tensor wq(d_model, d_model), wk(d_model, d_model), wv(d_model, d_model);
  for (int64_t h = 0; h < n_heads; ++h) {
    for (Tensor* w : {&wq, &wk, &wv}) w->xavier_cols(h * d_head, d_head, rng);
  }
  return {parameter(std::move(wq)), parameter(std::move(wk)),
          parameter(std::move(wv)),
          parameter(Tensor::xavier(d_model, d_model, rng)),
          parameter(Tensor(1, d_model))};
}

FeedForwardWeights<Var> init_feed_forward(int64_t d_model, int64_t d_ff,
                                          Rng& rng) {
  return {parameter(Tensor::xavier(d_model, d_ff, rng)),
          parameter(Tensor(1, d_ff)),
          parameter(Tensor::xavier(d_ff, d_model, rng)),
          parameter(Tensor(1, d_model))};
}

LayerNormWeights<Var> init_layer_norm(int64_t d_model) {
  return {parameter(Tensor(1, d_model, 1.0)), parameter(Tensor(1, d_model))};
}

Var attention(const AttentionWeights<Var>& w, const Var& query,
              const Var& key_value, int64_t n_heads, bool causal,
              double dropout_p, bool training, Rng& rng) {
  const int64_t d_head = w.wq->value.cols() / n_heads;
  const Var q = matmul(query, w.wq);
  const Var k = matmul(key_value, w.wk);
  const Var v = matmul(key_value, w.wv);
  std::vector<Var> outputs;
  outputs.reserve(static_cast<size_t>(n_heads));
  const double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(d_head));
  for (int64_t h = 0; h < n_heads; ++h) {
    const int64_t col = h * d_head;
    Var scores = scale(matmul_nt(slice_cols(q, col, d_head),
                                 slice_cols(k, col, d_head)),
                       inv_sqrt_dk);
    if (causal) scores = causal_mask(scores);
    Var attn = softmax_rows(scores);
    attn = dropout(attn, dropout_p, training, rng);
    outputs.push_back(matmul(attn, slice_cols(v, col, d_head)));
  }
  return add_bias(matmul(concat_cols(outputs), w.wo), w.bo);
}

Var feed_forward(const FeedForwardWeights<Var>& w, const Var& x,
                 double dropout_p, bool training, Rng& rng) {
  Var h = relu(add_bias(matmul(x, w.w_in), w.b_in));
  h = dropout(h, dropout_p, training, rng);
  h = add_bias(matmul(h, w.w_out), w.b_out);
  return dropout(h, dropout_p, training, rng);
}

Var layer_norm(const Var& x, const LayerNormWeights<Var>& w) {
  return ml::layer_norm(x, w.gamma, w.beta);
}

}  // namespace

EncoderLayerWeights<Var> init_encoder_layer(int64_t d_model, int64_t n_heads,
                                            int64_t d_ff, Rng& rng) {
  return {init_attention(d_model, n_heads, rng),
          init_feed_forward(d_model, d_ff, rng), init_layer_norm(d_model),
          init_layer_norm(d_model)};
}

DecoderLayerWeights<Var> init_decoder_layer(int64_t d_model, int64_t n_heads,
                                            int64_t d_ff, Rng& rng) {
  return {init_attention(d_model, n_heads, rng),
          init_attention(d_model, n_heads, rng),
          init_feed_forward(d_model, d_ff, rng), init_layer_norm(d_model),
          init_layer_norm(d_model), init_layer_norm(d_model)};
}

Var encoder_layer(const EncoderLayerWeights<Var>& w, const Var& x,
                  int64_t n_heads, double dropout_p, bool training, Rng& rng) {
  // Post-norm residuals as in the original architecture (paper Fig. 1).
  Var attn = attention(w.self, x, x, n_heads, /*causal=*/false, dropout_p,
                       training, rng);
  Var h = layer_norm(add(x, dropout(attn, dropout_p, training, rng)), w.norm1);
  Var ff = feed_forward(w.ffn, h, dropout_p, training, rng);
  return layer_norm(add(h, ff), w.norm2);
}

Var decoder_layer(const DecoderLayerWeights<Var>& w, const Var& x,
                  const Var& memory, int64_t n_heads, double dropout_p,
                  bool training, Rng& rng) {
  Var self = attention(w.self, x, x, n_heads, /*causal=*/true, dropout_p,
                       training, rng);
  Var h = layer_norm(add(x, dropout(self, dropout_p, training, rng)), w.norm1);
  Var cross = attention(w.cross, h, memory, n_heads, /*causal=*/false,
                        dropout_p, training, rng);
  h = layer_norm(add(h, dropout(cross, dropout_p, training, rng)), w.norm2);
  Var ff = feed_forward(w.ffn, h, dropout_p, training, rng);
  return layer_norm(add(h, ff), w.norm3);
}

}  // namespace ota::ml
