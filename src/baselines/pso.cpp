#include <algorithm>
#include <chrono>

#include "baselines/baselines.hpp"

namespace ota::baselines {

// Synchronous PSO: every generation first draws all velocity updates from the
// single calling-thread Rng (against the previous generation's global best),
// then evaluates the moved particles as one parallel batch, then folds the
// personal/global bests back in swarm order.  Deterministic per seed for any
// thread count.
OptResult particle_swarm(SizingProblem& problem, const PsoOptions& opt,
                         par::ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opt.seed);
  const size_t d = problem.dims();
  const int start_sims = problem.simulations();

  struct Particle {
    std::vector<double> x, v, best_x;
    double best_cost = 1e300;
  };
  const size_t swarm_size = static_cast<size_t>(std::max(opt.swarm_size, 2));
  std::vector<Particle> swarm(swarm_size);

  OptResult res;
  std::vector<std::vector<double>> batch;
  batch.reserve(swarm_size);
  for (auto& p : swarm) {
    p.x.resize(d);
    p.v.resize(d);
    for (size_t i = 0; i < d; ++i) {
      p.x[i] = rng.uniform();
      p.v[i] = rng.uniform(-0.1, 0.1);
    }
    batch.push_back(p.x);
  }
  std::vector<double> costs = problem.evaluate_batch(batch, pool);
  for (size_t j = 0; j < swarm_size; ++j) {
    swarm[j].best_x = swarm[j].x;
    swarm[j].best_cost = costs[j];
    if (costs[j] < res.best_cost) {
      res.best_cost = costs[j];
      res.best_x = swarm[j].x;
    }
  }

  while (problem.simulations() - start_sims < opt.max_simulations &&
         !SizingProblem::met(res.best_cost)) {
    ++res.iterations;
    const int remaining =
        opt.max_simulations - (problem.simulations() - start_sims);
    const size_t moved =
        std::min(swarm_size, static_cast<size_t>(remaining));
    batch.clear();
    for (size_t j = 0; j < moved; ++j) {
      Particle& p = swarm[j];
      for (size_t i = 0; i < d; ++i) {
        p.v[i] = opt.inertia * p.v[i] +
                 opt.c_personal * rng.uniform() * (p.best_x[i] - p.x[i]) +
                 opt.c_global * rng.uniform() * (res.best_x[i] - p.x[i]);
        p.v[i] = std::clamp(p.v[i], -0.3, 0.3);
        p.x[i] = std::clamp(p.x[i] + p.v[i], 0.0, 1.0);
      }
      batch.push_back(p.x);
    }
    costs = problem.evaluate_batch(batch, pool);
    for (size_t j = 0; j < moved; ++j) {
      Particle& p = swarm[j];
      if (costs[j] < p.best_cost) {
        p.best_cost = costs[j];
        p.best_x = p.x;
      }
      if (costs[j] < res.best_cost) {
        res.best_cost = costs[j];
        res.best_x = p.x;
      }
    }
  }

  res.success = SizingProblem::met(res.best_cost);
  res.simulations = problem.simulations() - start_sims;
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count();
  return res;
}

}  // namespace ota::baselines
