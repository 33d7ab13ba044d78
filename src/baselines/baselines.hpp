// The four reimplemented prior-art sizing optimizers of Table IX.
//
// Each optimizer minimizes SizingProblem's spec-shortfall cost with a
// configurable simulation budget and stops early once every specification is
// met.  These are classical implementations (not reproductions of the cited
// systems' code): simulated annealing [Gielen et al. 1990], particle swarm
// [Vural & Yildirim 2012], differential evolution [Liu et al. 2009], and a
// GP-based Bayesian optimizer with expected improvement standing in for
// WEIBO [Lyu et al. 2018].
#pragma once

#include "baselines/problem.hpp"
#include "common/rng.hpp"

namespace ota::baselines {

// The population-based methods (PSO, DE) and BO evaluate their per-iteration
// candidate sets through SizingProblem::evaluate_batch on `pool`; all RNG
// draws stay on the calling thread, so every optimizer is deterministic per
// seed for any pool width.  Simulated annealing is a sequential chain — each
// move depends on the previous accept/reject — and stays single-threaded.

struct SaOptions {
  int max_simulations = 2000;
  double t_initial = 1.0;
  double t_final = 1e-3;
  double step = 0.25;     ///< Gaussian move scale in the unit cube
  uint64_t seed = 1;
};
OptResult simulated_annealing(SizingProblem& problem, const SaOptions& opt = {});

struct PsoOptions {
  int max_simulations = 2000;
  int swarm_size = 20;
  double inertia = 0.72;
  double c_personal = 1.49;
  double c_global = 1.49;
  uint64_t seed = 2;
};
OptResult particle_swarm(SizingProblem& problem, const PsoOptions& opt = {},
                         par::ThreadPool& pool = par::global_pool());

struct DeOptions {
  int max_simulations = 2000;
  int population = 20;
  double f = 0.6;        ///< differential weight
  double cr = 0.9;       ///< crossover probability
  uint64_t seed = 3;
};
OptResult differential_evolution(SizingProblem& problem,
                                 const DeOptions& opt = {},
                                 par::ThreadPool& pool = par::global_pool());

struct BoOptions {
  int max_simulations = 120;  ///< BO is sample-efficient but per-step costly
  int initial_samples = 10;
  int candidates = 512;       ///< random acquisition candidates per step
  double lengthscale = 0.25;
  double signal_var = 1.0;
  double noise_var = 1e-6;
  uint64_t seed = 4;
};
OptResult bayesian_optimization(SizingProblem& problem,
                                const BoOptions& opt = {},
                                par::ThreadPool& pool = par::global_pool());

}  // namespace ota::baselines
