#include "ml/trainer.hpp"

#include <algorithm>
#include <utility>

namespace ota::ml {

DataParallelTrainer::DataParallelTrainer(Transformer& model, Adam& adam,
                                         int max_parallel,
                                         par::ThreadPool& pool)
    : master_(model), adam_(adam), pool_(pool) {
  int n = std::max(1, pool.size());
  if (max_parallel > 0) n = std::min(n, max_parallel);
  replicas_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    replicas_.push_back(std::make_unique<Transformer>(master_.config()));
  }
  sync_replicas();
}

void DataParallelTrainer::sync_replicas() {
  pool_.parallel_for(replicas_.size(), [this](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      replicas_[r]->copy_parameters_from(master_);
    }
  });
}

double DataParallelTrainer::train_batch(
    const std::vector<const TrainExample*>& batch, uint64_t dropout_seed,
    uint64_t first_stream) {
  const size_t bsz = batch.size();
  if (bsz == 0) return 0.0;
  const auto& params = master_.parameters();
  const size_t np = params.size();
  if (slots_.size() < bsz) slots_.resize(bsz, std::vector<Tensor>(np));
  losses_.assign(bsz, 0.0);

  // Phase 1: forward/backward, one replica per chunk, one slot per example.
  // The chunk count is capped at the lane count so a shared pool wider than
  // the replica set can never hand out a chunk index without a replica.
  pool_.parallel_for_chunked(
      bsz, replicas_.size(), [&](size_t begin, size_t end, size_t chunk) {
        Transformer& rep = *replicas_[chunk];
        const auto& rp = rep.parameters();
        for (size_t i = begin; i < end; ++i) {
          Rng rng(dropout_seed, first_stream + i);
          const TrainExample& ex = *batch[i];
          const Var l = rep.loss(ex.src, ex.tgt, ex.weights, rng);
          losses_[i] = l->value.at(0);
          backward(l);
          // Hand the gradient off by swap, not copy: the replica inherits
          // the slot's stale same-shape tensor (zeroed below) or an empty
          // one (reallocated zeroed by the next ensure_grad), so the next
          // example still starts from zero either way.
          auto& slot = slots_[i];
          for (size_t p = 0; p < np; ++p) {
            std::swap(slot[p], rp[p]->grad);
            if (rp[p]->grad.same_shape(rp[p]->value)) rp[p]->grad.zero();
          }
        }
      });

  // Phase 2: ordered reduction into the master gradients, parameters in
  // parallel (each parameter's sum runs in ascending example order, so the
  // result is independent of the sharding), with the squared clip norm
  // accumulated in the same sweep.
  std::vector<double> sumsq(np, 0.0);
  pool_.parallel_for(np, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      Node& param = *params[p];
      Tensor& g = param.ensure_grad();
      for (size_t i = 0; i < bsz; ++i) {
        const Tensor& s = slots_[i][p];
        if (!s.same_shape(g)) continue;  // parameter unused by this example
        for (int64_t k = 0; k < g.size(); ++k) g.at(k) += s.at(k);
      }
      double acc = 0.0;
      for (int64_t k = 0; k < g.size(); ++k) acc += g.at(k) * g.at(k);
      sumsq[p] = acc;
    }
  });
  double total_sq = 0.0;
  for (double v : sumsq) total_sq += v;  // fixed parameter order

  adam_.step_presquared(total_sq);
  sync_replicas();

  double total = 0.0;
  for (double v : losses_) total += v;  // fixed example order
  return total;
}

double DataParallelTrainer::eval_sum(
    const std::vector<const TrainExample*>& batch) {
  const size_t bsz = batch.size();
  if (bsz == 0) return 0.0;
  losses_.assign(bsz, 0.0);
  pool_.parallel_for_chunked(
      bsz, replicas_.size(), [&](size_t begin, size_t end, size_t chunk) {
        Transformer& rep = *replicas_[chunk];
        Rng rng(0);  // dropout is disabled below; no draws happen
        for (size_t i = begin; i < end; ++i) {
          const TrainExample& ex = *batch[i];
          losses_[i] = rep.loss(ex.src, ex.tgt, ex.weights, rng,
                                /*training=*/false)
                           ->value.at(0);
        }
      });
  double total = 0.0;
  for (double v : losses_) total += v;
  return total;
}

}  // namespace ota::ml
