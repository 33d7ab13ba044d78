// The transformer's parameter layout and its building blocks (Vaswani et al.,
// as adapted in the paper): sinusoidal positional encoding, multi-head
// attention, position-wise feed-forward, and the encoder/decoder blocks with
// residual connections and layer normalization.
//
// The layout is defined once, here, as weight structs templated on the slot
// type W: Var in the trainable Transformer, BasicTensor<T> in each tier of the
// inference engine.  The projection matrices (wq/wk/wv/wo, w_in/w_out,
// out_w) take the slot type M, which is W unless given: the engine packs them
// as PanelMatrix<T> (ml/panel_matrix.hpp).  Each attention site holds fused
// (d_model, d_model) wq/wk/wv; column block [h*d_head, (h+1)*d_head) of each
// is head h's projection (Vaswani et al. 2017, Section 3.2.2).
//
// for_each_weight() fixes the one parameter order every consumer walks:
// Transformer::parameters() (hence Adam, the trainer's reduction and clip
// norm, replica sync and save/load) and the engine's compile.  The order is
//   src_embed, tgt_embed,
//   per encoder layer: self{wq, wk, wv, wo, bo}, ffn{w_in, b_in, w_out,
//     b_out}, norm1{gamma, beta}, norm2{gamma, beta},
//   per decoder layer: self{...}, cross{...}, ffn{...}, norm1, norm2, norm3,
//   out_w, out_b.
#pragma once

#include <vector>

#include "ml/ops.hpp"

namespace ota::ml {

/// One attention site: fused Q/K/V projections (head h is column block h),
/// then the output projection W_O and its bias.
template <typename W, typename M = W>
struct AttentionWeights {
  M wq, wk, wv;  ///< (d_model, d_model)
  M wo;          ///< (d_model, d_model)
  W bo;          ///< (1, d_model)
};

template <typename W, typename M = W>
struct FeedForwardWeights {
  M w_in;   ///< (d_model, d_ff)
  W b_in;   ///< (1, d_ff)
  M w_out;  ///< (d_ff, d_model)
  W b_out;  ///< (1, d_model)
};

template <typename W>
struct LayerNormWeights {
  W gamma, beta;  ///< (1, d_model)
};

template <typename W, typename M = W>
struct EncoderLayerWeights {
  AttentionWeights<W, M> self;
  FeedForwardWeights<W, M> ffn;
  LayerNormWeights<W> norm1, norm2;
};

template <typename W, typename M = W>
struct DecoderLayerWeights {
  AttentionWeights<W, M> self, cross;
  FeedForwardWeights<W, M> ffn;
  LayerNormWeights<W> norm1, norm2, norm3;
};

template <typename W, typename M = W>
struct ModelWeights {
  W src_embed, tgt_embed;  ///< (vocab, d_model)
  std::vector<EncoderLayerWeights<W, M>> encoder;
  std::vector<DecoderLayerWeights<W, M>> decoder;
  M out_w;  ///< (d_model, vocab)
  W out_b;  ///< (1, vocab)
};

/// Calls f(m0.x, m.x...) on every weight field x of one or more models in
/// lockstep, in the layout's parameter order (see the top of this file).
/// Throws InvalidArgument when the models' layer counts differ.
template <typename F, typename M0, typename... M>
void for_each_weight(F&& f, M0& m0, M&... m) {
  if (((m.encoder.size() != m0.encoder.size() ||
        m.decoder.size() != m0.decoder.size()) || ...)) {
    throw InvalidArgument("for_each_weight: layer counts differ");
  }
  const auto attention = [&f](auto&... a) {
    f(a.wq...); f(a.wk...); f(a.wv...); f(a.wo...); f(a.bo...);
  };
  const auto feed_forward = [&f](auto&... a) {
    f(a.w_in...); f(a.b_in...); f(a.w_out...); f(a.b_out...);
  };
  const auto norm = [&f](auto&... a) { f(a.gamma...); f(a.beta...); };
  f(m0.src_embed, m.src_embed...);
  f(m0.tgt_embed, m.tgt_embed...);
  for (size_t l = 0; l < m0.encoder.size(); ++l) {
    attention(m0.encoder[l].self, m.encoder[l].self...);
    feed_forward(m0.encoder[l].ffn, m.encoder[l].ffn...);
    norm(m0.encoder[l].norm1, m.encoder[l].norm1...);
    norm(m0.encoder[l].norm2, m.encoder[l].norm2...);
  }
  for (size_t l = 0; l < m0.decoder.size(); ++l) {
    attention(m0.decoder[l].self, m.decoder[l].self...);
    attention(m0.decoder[l].cross, m.decoder[l].cross...);
    feed_forward(m0.decoder[l].ffn, m.decoder[l].ffn...);
    norm(m0.decoder[l].norm1, m.decoder[l].norm1...);
    norm(m0.decoder[l].norm2, m.decoder[l].norm2...);
    norm(m0.decoder[l].norm3, m.decoder[l].norm3...);
  }
  f(m0.out_w, m.out_w...);
  f(m0.out_b, m.out_b...);
}

/// Fixed sine/cosine positional table added to the (scaled) embeddings.
class PositionalEncoding {
 public:
  PositionalEncoding() = default;
  PositionalEncoding(int64_t max_len, int64_t d_model);
  /// Adds positions 0..L-1 to x (L,d).
  Var forward(const Var& x) const;
  /// The raw (max_len, d_model) table; InferenceEngine reads it directly.
  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

/// Fresh trainable blocks, drawn from `rng` in a fixed order so a model is
/// a pure function of its seed.  Every head's column block of wq/wk/wv is
/// its own Xavier (d_model, d_head) matrix, drawn head by head (q, k, v of
/// head 0, then head 1, ...) before wo.
EncoderLayerWeights<Var> init_encoder_layer(int64_t d_model, int64_t n_heads,
                                            int64_t d_ff, Rng& rng);
DecoderLayerWeights<Var> init_decoder_layer(int64_t d_model, int64_t n_heads,
                                            int64_t d_ff, Rng& rng);

/// Encoder block: self-attention + FFN, post-norm residuals.  Attention runs
/// one GEMM per fused projection and reads the heads as column slices.
/// Dropout draws come from `rng` in a fixed order, and none when !training.
Var encoder_layer(const EncoderLayerWeights<Var>& w, const Var& x,
                  int64_t n_heads, double dropout_p, bool training, Rng& rng);

/// Decoder block: masked self-attention + cross-attention + FFN.
Var decoder_layer(const DecoderLayerWeights<Var>& w, const Var& x,
                  const Var& memory, int64_t n_heads, double dropout_p,
                  bool training, Rng& rng);

}  // namespace ota::ml
