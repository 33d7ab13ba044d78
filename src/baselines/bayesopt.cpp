// Gaussian-process Bayesian optimization with expected improvement, the
// stand-in for WEIBO [Lyu et al. 2018] in Table IX.  RBF kernel, Cholesky-free
// (LU) posterior, EI maximized over random candidates.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "baselines/baselines.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace ota::baselines {

namespace {

double rbf(const std::vector<double>& a, const std::vector<double>& b,
           double lengthscale, double signal_var) {
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return signal_var * std::exp(-0.5 * d2 / (lengthscale * lengthscale));
}

double norm_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
}

double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

OptResult bayesian_optimization(SizingProblem& problem, const BoOptions& opt,
                                par::ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(opt.seed);
  const size_t d = problem.dims();
  const int start_sims = problem.simulations();

  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  OptResult res;

  auto observe = [&](const std::vector<double>& x) {
    const double y = problem.evaluate(x);
    xs.push_back(x);
    ys.push_back(y);
    if (y < res.best_cost) {
      res.best_cost = y;
      res.best_x = x;
    }
    return y;
  };

  // Space-filling warm start, evaluated as one parallel batch (clamped to
  // the simulation budget).  The batch trades the old sample-by-sample
  // met-early-stop for parallel evaluation; the budget is still respected.
  const int n_initial = std::min(opt.initial_samples, opt.max_simulations);
  for (int i = 0; i < n_initial; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.uniform();
    xs.push_back(std::move(x));
  }
  ys = problem.evaluate_batch(xs, pool);
  for (size_t i = 0; i < xs.size(); ++i) {
    if (ys[i] < res.best_cost) {
      res.best_cost = ys[i];
      res.best_x = xs[i];
    }
  }

  while (problem.simulations() - start_sims < opt.max_simulations &&
         !SizingProblem::met(res.best_cost)) {
    ++res.iterations;
    const size_t n = xs.size();
    // GP posterior precomputation: K^{-1} y and K^{-1} per candidate column.
    linalg::MatrixD k(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        k(i, j) = rbf(xs[i], xs[j], opt.lengthscale, opt.signal_var);
      }
      k(i, i) += opt.noise_var;
    }
    const linalg::LuDecomposition<double> lu(k);
    const std::vector<double> alpha = lu.solve(ys);

    // EI over random candidates: candidate points are drawn sequentially on
    // this thread, their (pure, model-only) EI scores computed in parallel,
    // and the argmax taken in candidate order — same winner for any pool size.
    std::vector<std::vector<double>> cands(
        static_cast<size_t>(std::max(opt.candidates, 1)));
    for (auto& x : cands) {
      x.resize(d);
      for (auto& v : x) v = rng.uniform();
    }
    const std::vector<double> eis =
        pool.parallel_map<double>(cands, [&](const std::vector<double>& x, size_t) {
          std::vector<double> kstar(n);
          for (size_t i = 0; i < n; ++i) {
            kstar[i] = rbf(x, xs[i], opt.lengthscale, opt.signal_var);
          }
          double mu = 0.0;
          for (size_t i = 0; i < n; ++i) mu += kstar[i] * alpha[i];
          const std::vector<double> kinv_kstar = lu.solve(kstar);
          double var = opt.signal_var;
          for (size_t i = 0; i < n; ++i) var -= kstar[i] * kinv_kstar[i];
          const double sigma = std::sqrt(std::max(var, 1e-12));
          const double improve = res.best_cost - mu;
          const double z = improve / sigma;
          return improve * norm_cdf(z) + sigma * norm_pdf(z);
        });
    size_t best_c = 0;
    double best_ei = -1.0;
    for (size_t c = 0; c < cands.size(); ++c) {
      if (eis[c] > best_ei) {
        best_ei = eis[c];
        best_c = c;
      }
    }
    observe(cands[best_c]);
  }

  res.success = SizingProblem::met(res.best_cost);
  res.simulations = problem.simulations() - start_sims;
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count();
  return res;
}

}  // namespace ota::baselines
