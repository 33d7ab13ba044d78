// Asynchronous Stage-II submission: the seam between the copilot's
// sequential refinement loop and whatever executes its predictions.
//
// The copilot's loop is inherently sequential (each request depends on the
// previous verification), so from one campaign's point of view a prediction
// is submit-then-wait.  What the seam buys is the server case: many
// concurrent campaigns hand their submits to a shared continuous-batching
// scheduler (serve::ScheduledPredictionClient over ml::DecodeScheduler),
// which coalesces them into dynamic batches on one inference engine.  The
// serial client below is the bit-identity reference — the scheduler-backed
// path must produce byte-identical decoder text for every request.
//
// Cancellation rides the same seam: the campaign's ota::CancelToken
// accompanies each submit, so a cancelled campaign's in-flight decode can
// retire from the dynamic batch mid-round instead of decoding tokens nobody
// will read.
#pragma once

#include <memory>
#include <string>

#include "common/cancel.hpp"
#include "core/predictor.hpp"
#include "ml/precision.hpp"

namespace ota::core {

/// Submit an encoder text now, collect the decoded text later.
class PredictionClient {
 public:
  /// One outstanding prediction.
  class Handle {
   public:
    virtual ~Handle() = default;
    /// Blocks until the prediction is available and returns the decoder
    /// text.  Rethrows the request's error (cancellation, refused input).
    virtual std::string wait() = 0;
  };

  virtual ~PredictionClient() = default;

  /// Enqueues one prediction.  Implementations may compute eagerly (the
  /// serial reference) or hand off to a batch scheduler; either way wait()
  /// on the handle yields text bit-identical to
  /// `predictor.predict_batch({encoder_text}, max_tokens).front()`.
  /// Implementations must honor `cancel` at their natural granularity: the
  /// serial client checks it once at submit time, the scheduler-backed
  /// client hands it to the decode scheduler so an in-flight decode retires
  /// mid-round.  A cancelled request's wait() rethrows ota::Cancelled.
  virtual std::unique_ptr<Handle> submit(const std::string& encoder_text,
                                         int max_tokens,
                                         const CancelToken& cancel) = 0;
};

/// The reference implementation: predicts synchronously on the submitting
/// thread through the serial batch-of-one path — exactly the call the
/// copilot's refinement loop used to make directly.
class SerialPredictionClient : public PredictionClient {
 public:
  /// `precision` selects the numeric tier every submit decodes at
  /// (ml::Precision::kDouble, the default, is the bit-identity reference;
  /// kFloat32 is the SIMD serving tier).  Validated here so a forged enum
  /// value is refused at construction, not at the first prediction.
  explicit SerialPredictionClient(
      const Predictor& model, ml::Precision precision = ml::Precision::kDouble)
      : model_(model),
        precision_(
            ml::validated_precision(precision, "SerialPredictionClient")) {}

  std::unique_ptr<Handle> submit(const std::string& encoder_text,
                                 int max_tokens,
                                 const CancelToken& cancel) override {
    class Ready : public Handle {
     public:
      explicit Ready(std::string text) : text_(std::move(text)) {}
      std::string wait() override { return text_; }

     private:
      std::string text_;
    };
    // The prediction runs inline, so submit time IS the only cancellation
    // point; an uncancelled request is computed exactly as before.
    cancel.check("SerialPredictionClient::submit");
    // A batch of one decodes inline on the submitting thread, whatever the
    // pool (parallel_for runs a single item inline).
    return std::make_unique<Ready>(
        model_.predict_batch({encoder_text}, max_tokens, precision_).front());
  }

 private:
  const Predictor& model_;
  ml::Precision precision_;
};

}  // namespace ota::core
