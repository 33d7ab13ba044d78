// Abstraction over Stage II: anything that maps an encoder sequence to a
// decoder sequence.  The transformer (SizingModel) is the paper's instance;
// NearestNeighborPredictor is a non-learned reference used by tests and the
// ablation benchmarks (how much does the transformer beat a lookup of the
// closest training design?); serve::ScheduledPredictor routes each predict
// through a campaign server's shared continuous-batching scheduler.  Numeric
// tiers and decode batching are settings of the ml layer's decode paths
// (ml::DecodeScheduler::Options), not of this interface.
#pragma once

#include <string>

#include "common/cancel.hpp"

namespace ota::core {

class Predictor {
 public:
  virtual ~Predictor() = default;
  /// Decoder-sequence prediction for an encoder sequence.  `cancel` is the
  /// caller's token: a scheduler-backed implementation hands it to its
  /// decode, which retires once the token fires and throws ota::Cancelled;
  /// an inline one may ignore it (the copilot checks the token just before
  /// each call).  Overrides repeat the `= {}` default, so
  /// `predict(text, n)` always compiles.  The validation sweeps in
  /// core/metrics.hpp call it from several pool lanes at once, so a
  /// predictor handed to them must be safe to call concurrently.
  virtual std::string predict(const std::string& encoder_text, int max_tokens,
                              const CancelToken& cancel = {}) const = 0;
};

}  // namespace ota::core
