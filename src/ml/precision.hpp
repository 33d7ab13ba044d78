// Numeric tier selection for the inference engine's decode path.
//
// kDouble is the bit-identity reference: every kernel replicates the autograd
// ops' accumulation order, so its token streams match Transformer::greedy_decode
// bit for bit.  kFloat32 is the serving tier: the engine decodes through a
// float32 weight snapshot with SIMD row kernels — half the memory traffic of
// the double path on the decode-shape GEMV/attention loops — and is gated on
// token-level agreement with the reference (bench_infer_tier hard-fails on any
// divergence on trained models, rather than silently degrading results).
//
// The tier is a setting of this layer alone: an InferenceEngine decode call
// (Session, greedy_decode) or a DecodeScheduler's Options.  A group step
// (Session::greedy_step_group) takes no precision: it runs at its sessions'
// tier, which must be one tier for the whole group.  The serving layer
// passes a scheduler's Options through
// serve::CampaignServer::register_topology unchanged, so each topology's
// scheduler, and so its serve::ScheduledPredictor, decodes at one tier.
// Session and DecodeScheduler validate the value before any work starts.
#pragma once

#include "common/error.hpp"

namespace ota::ml {

enum class Precision {
  kDouble = 0,   ///< bit-identity reference tier (training-side tensors)
  kFloat32 = 1,  ///< SIMD serving tier, gated on token agreement
};

/// Door-policy validation for precision knobs that arrive through option
/// structs (where an out-of-range value can be forged with a static_cast):
/// throws InvalidArgument naming the call site, returns the value otherwise.
inline Precision validated_precision(Precision p, const char* where) {
  if (p != Precision::kDouble && p != Precision::kFloat32) {
    throw InvalidArgument(std::string(where) +
                          ": invalid precision tier (expected double or "
                          "float32)");
  }
  return p;
}

}  // namespace ota::ml
