// Stage II: the trained tokenizer + transformer pair (paper Section III-C).
//
// Wraps BPE training, weighted-cross-entropy training of the encoder-decoder
// transformer (numeric tokens get the paper's 20% uplift), greedy prediction,
// and on-disk persistence so benchmark binaries can share one trained model.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "ml/adam.hpp"
#include "ml/infer.hpp"
#include "ml/trainer.hpp"
#include "ml/transformer.hpp"
#include "nlp/bpe.hpp"

namespace ota::core {

struct TrainOptions {
  int epochs = 12;
  int batch_size = 8;          ///< minibatch sharded across the worker pool
  double lr = 1e-3;            ///< paper starts at 1e-4 at GPU scale
  double numeric_weight = 1.2; ///< paper: +20% on numeric tokens
  double val_fraction = 0.1;   ///< held out for the plateau lr schedule
  int bpe_merges = 512;
  int64_t d_model = 48;        ///< paper: 720
  int64_t n_heads = 4;         ///< paper: 12
  int64_t n_layers = 2;
  int64_t d_ff = 96;
  int64_t max_len = 2048;
  double dropout = 0.05;
  uint64_t seed = 7;
  bool verbose = false;        ///< per-epoch loss to stderr
};

struct TrainHistory {
  std::vector<double> train_loss;  ///< per epoch
  std::vector<double> val_loss;
  double seconds = 0.0;            ///< wall-clock training time
  int threads = 1;                 ///< trainer lanes (model replicas)
};

/// A text-to-text sizing model over (encoder sequence, decoder sequence)
/// pairs produced by SequenceBuilder.
class SizingModel : public Predictor {
 public:
  /// Trains tokenizer + transformer from scratch on the given pairs.
  /// Minibatches are data-parallel on `pool` through ml::DataParallelTrainer
  /// (at most batch_size lanes); the loss trajectory and final weights are
  /// bit-identical for any pool width at a fixed seed.
  TrainHistory train(const std::vector<std::pair<std::string, std::string>>& pairs,
                     const TrainOptions& opt,
                     par::ThreadPool& pool = par::global_pool());

  /// Greedy prediction of the decoder text for an encoder text.  Decodes
  /// inline through the compiled inference engine (KV cache, no autograd
  /// graph), so it does not read `cancel`; output is bit-identical to the
  /// Var-based Transformer::greedy_decode.  Throws InvalidArgument for
  /// max_tokens <= 0.
  std::string predict(const std::string& encoder_text, int max_tokens = 800,
                      const CancelToken& cancel = {}) const override;

  /// Batched greedy prediction: all requests decode concurrently on `pool`
  /// through the engine.  kDouble is bit-identical to the serial loop;
  /// kFloat32 decodes through the engine's float32 snapshot (agreement-gated
  /// against the double tier).  Both are deterministic for any pool width.
  std::vector<std::string> predict_batch(
      const std::vector<std::string>& encoder_texts, int max_tokens = 800,
      ml::Precision precision = ml::Precision::kDouble,
      par::ThreadPool& pool = par::global_pool()) const override;

  bool trained() const { return model_ != nullptr && engine_ != nullptr; }
  const nlp::BpeTokenizer& tokenizer() const;
  const ml::Transformer& transformer() const;
  /// The autograd-free evaluation representation, recompiled after every
  /// train()/load().
  const ml::InferenceEngine& engine() const;

  /// Persists tokenizer + weights to `<prefix>.bpe` / `<prefix>.model`.
  /// The model file carries an explicit field-by-field config header
  /// (version tag "otasmdl2") ahead of the Transformer weight stream.
  /// Throws ota::Error naming the file when either cannot be written.
  void save(const std::string& prefix) const;
  /// Loads a previously saved model; returns false when files are missing.
  /// Throws InvalidArgument for any other model file, and for a header that
  /// declares more weights than the file holds or an oversized positional
  /// table, before allocating the model.
  bool load(const std::string& prefix);

 private:
  std::vector<double> target_weights(const std::vector<nlp::TokenId>& tgt,
                                     double numeric_weight) const;

  nlp::BpeTokenizer tokenizer_;
  std::unique_ptr<ml::Transformer> model_;
  std::unique_ptr<ml::InferenceEngine> engine_;
  TrainOptions opt_;
};

}  // namespace ota::core
