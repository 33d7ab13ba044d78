// Deterministic data-parallel minibatch training.
//
// The training-side counterpart of the batched inference engine: each
// minibatch's examples are sharded across an ota::par pool and every chunk
// runs forward/backward on its own full model replica, writing the finished
// per-example gradient into a caller-indexed slot.  The slots are then
// reduced into the master model's gradients in fixed example order and Adam
// steps once per batch with the clip norm fused into the reduction.
//
// Determinism contract (property-tested in tests/test_determinism.cpp): the
// loss trajectory and the final weights are bit-identical for any pool
// width, including an inline pool, because
//   * every example draws dropout from its own counted SplitMix64 stream,
//     keyed by a global example index the coordinator assigns;
//   * per-example gradients never share an accumulator — each is produced
//     from a zeroed replica and parked in its own slot;
//   * the slot reduction runs per parameter in ascending example order, and
//     the clip-norm partials are summed in ascending parameter order,
//     independent of how the batch was sharded.
#pragma once

#include <memory>
#include <vector>

#include "ml/adam.hpp"
#include "ml/transformer.hpp"
#include "par/thread_pool.hpp"

namespace ota::ml {

/// One pre-encoded training example.
struct TrainExample {
  std::vector<nlp::TokenId> src, tgt;
  std::vector<double> weights;  ///< one per target token plus <eos>
};

class DataParallelTrainer {
 public:
  /// `model` is the master: Adam updates its parameters and the replicas
  /// re-sync from it after every step.  Both references and `pool` must
  /// outlive the trainer.  The lane count (model replicas, hence chunks a
  /// batch is sharded into) is min(max(1, pool.size()), max_parallel), so
  /// replicas never outnumber the workers that run them; callers pass their
  /// batch size as `max_parallel` (> 0; <= 0 = no cap) so a many-core host
  /// never allocates (or re-syncs) replicas a batch can't occupy.  By the
  /// determinism contract the lane count cannot change the results.
  DataParallelTrainer(Transformer& model, Adam& adam, int max_parallel = 0,
                      par::ThreadPool& pool = par::global_pool());

  /// Parallel lanes (model replicas); 1 when everything runs inline.
  int threads() const { return static_cast<int>(replicas_.size()); }

  /// Forward/backward over `batch`, ordered gradient reduction, one
  /// fused-clip Adam step, replica re-sync.  Example i draws dropout from
  /// Rng(dropout_seed, first_stream + i); the caller advances first_stream
  /// by batch.size() so every example in a run owns a unique stream.
  /// Returns the batch's summed loss.  Calls from inside one of the pool's
  /// own workers degrade to a single-lane inline run (same results, no
  /// deadlock).
  double train_batch(const std::vector<const TrainExample*>& batch,
                     uint64_t dropout_seed, uint64_t first_stream);

  /// Dropout-free loss sum over `batch` (the validation pass), parallelized
  /// the same way and summed in example order.
  double eval_sum(const std::vector<const TrainExample*>& batch);

 private:
  void sync_replicas();

  Transformer& master_;
  Adam& adam_;
  par::ThreadPool& pool_;
  std::vector<std::unique_ptr<Transformer>> replicas_;
  std::vector<std::vector<Tensor>> slots_;  ///< per-example parameter grads
  std::vector<double> losses_;              ///< per-example losses
};

}  // namespace ota::ml
