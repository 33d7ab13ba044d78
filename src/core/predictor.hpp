// Abstraction over Stage II: anything that maps an encoder sequence to a
// decoder sequence.  The transformer (SizingModel) is the paper's instance;
// NearestNeighborPredictor is a non-learned reference used by tests and the
// ablation benchmarks (how much does the transformer beat a lookup of the
// closest training design?).
#pragma once

#include <string>
#include <vector>

#include "ml/precision.hpp"
#include "par/thread_pool.hpp"

namespace ota::core {

class Predictor {
 public:
  virtual ~Predictor() = default;
  /// Decoder-sequence prediction for an encoder sequence.
  virtual std::string predict(const std::string& encoder_text,
                              int max_tokens) const = 0;

  /// Predictions for many encoder sequences at numeric tier `precision`,
  /// positionally aligned with the input.  The default is a serial loop
  /// over predict(): the non-learned reference predictors have one answer
  /// and no floating tiers, so they ignore both `precision` and `pool`.
  /// Implementations with a faster path (SizingModel decodes batches
  /// concurrently on `pool` through its inference engine) override it.
  /// Contract for overrides: ml::Precision::kDouble output must be
  /// bit-identical to the serial loop, and kFloat32 output deterministic,
  /// for any pool width.
  virtual std::vector<std::string> predict_batch(
      const std::vector<std::string>& encoder_texts, int max_tokens,
      ml::Precision precision = ml::Precision::kDouble,
      par::ThreadPool& /*pool*/ = par::global_pool()) const {
    ml::validated_precision(precision, "Predictor::predict_batch");
    std::vector<std::string> out;
    out.reserve(encoder_texts.size());
    for (const std::string& text : encoder_texts) {
      out.push_back(predict(text, max_tokens));
    }
    return out;
  }
};

}  // namespace ota::core
