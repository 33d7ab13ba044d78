#include <algorithm>
#include <chrono>

#include "baselines/baselines.hpp"

namespace ota::baselines {

// Classic DE/rand/1/bin in its synchronous (generational) form: all trial
// vectors of a generation are built from the previous generation's population
// with calling-thread RNG draws, evaluated as one parallel batch, then
// selected in population order.  Deterministic per seed for any thread count.
OptResult differential_evolution(SizingProblem& problem, const DeOptions& opt,
                                 par::ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opt.seed);
  const size_t d = problem.dims();
  const size_t np = static_cast<size_t>(std::max(opt.population, 4));
  const int start_sims = problem.simulations();

  std::vector<std::vector<double>> pop(np, std::vector<double>(d));
  OptResult res;
  for (size_t i = 0; i < np; ++i) {
    for (auto& v : pop[i]) v = rng.uniform();
  }
  std::vector<double> cost = problem.evaluate_batch(pop, pool);
  for (size_t i = 0; i < np; ++i) {
    if (cost[i] < res.best_cost) {
      res.best_cost = cost[i];
      res.best_x = pop[i];
    }
  }

  std::vector<std::vector<double>> trials;
  trials.reserve(np);
  while (problem.simulations() - start_sims < opt.max_simulations &&
         !SizingProblem::met(res.best_cost)) {
    ++res.iterations;
    const int remaining =
        opt.max_simulations - (problem.simulations() - start_sims);
    const size_t n_trials = std::min(np, static_cast<size_t>(remaining));
    trials.clear();
    for (size_t i = 0; i < n_trials; ++i) {
      size_t a, b, c;
      do { a = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(np) - 1)); } while (a == i);
      do { b = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(np) - 1)); } while (b == i || b == a);
      do { c = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(np) - 1)); } while (c == i || c == a || c == b);

      std::vector<double> trial = pop[i];
      const size_t forced = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(d) - 1));
      for (size_t j = 0; j < d; ++j) {
        if (j == forced || rng.uniform() < opt.cr) {
          trial[j] = std::clamp(pop[a][j] + opt.f * (pop[b][j] - pop[c][j]), 0.0, 1.0);
        }
      }
      trials.push_back(std::move(trial));
    }
    const std::vector<double> trial_cost = problem.evaluate_batch(trials, pool);
    for (size_t i = 0; i < n_trials; ++i) {
      if (trial_cost[i] <= cost[i]) {
        pop[i] = trials[i];
        cost[i] = trial_cost[i];
        if (trial_cost[i] < res.best_cost) {
          res.best_cost = trial_cost[i];
          res.best_x = pop[i];
        }
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
