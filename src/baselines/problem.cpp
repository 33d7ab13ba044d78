#include "baselines/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ota::baselines {

namespace {

// The shared cost kernel of evaluate()/evaluate_batch(): one simulation of
// `topo` at `widths` scored against `target`.
double cost_at(circuit::Topology& topo, const device::Technology& tech,
               const core::Specs& target, const std::vector<double>& widths) {
  spice::EvalResult r;
  try {
    r = spice::evaluate(topo, tech, widths);
  } catch (const ConvergenceError&) {
    return 10.0;  // non-simulatable point: large constant penalty
  }
  // Summed relative shortfalls; specs are minimum requirements.
  double cost = 0.0;
  cost += std::max(0.0, (target.gain_db - r.metrics.gain_db) /
                            std::max(target.gain_db, 1.0));
  cost += std::max(0.0, (target.bw_hz - r.metrics.bw_3db_hz) / target.bw_hz);
  cost += std::max(0.0, (target.ugf_hz - r.metrics.ugf_hz) / target.ugf_hz);
  if (!r.saturation_ok) cost += 0.5;  // bias away from railed designs
  return cost;
}

}  // namespace

SizingProblem::SizingProblem(circuit::Topology topology,
                             const device::Technology& tech, core::Specs target)
    : topo_(std::move(topology)), tech_(tech), target_(target) {}

std::vector<double> SizingProblem::to_widths(const std::vector<double>& x) const {
  if (x.size() != dims()) throw InvalidArgument("SizingProblem: dim mismatch");
  std::vector<double> w(x.size());
  const double lmin = std::log(core::kWidthMin);
  const double lmax = std::log(core::kWidthMax);
  for (size_t i = 0; i < x.size(); ++i) {
    const double t = std::clamp(x[i], 0.0, 1.0);
    w[i] = std::exp(lmin + t * (lmax - lmin));
  }
  return w;
}

double SizingProblem::evaluate(const std::vector<double>& x) {
  ++simulations_;
  return cost_at(topo_, tech_, target_, to_widths(x));
}

std::vector<double> SizingProblem::evaluate_batch(
    const std::vector<std::vector<double>>& xs, par::ThreadPool& pool) {
  simulations_ += static_cast<int>(xs.size());
  std::vector<double> costs(xs.size());
  pool.parallel_for(xs.size(), [&](size_t begin, size_t end) {
    circuit::Topology worker_topo = topo_;
    for (size_t i = begin; i < end; ++i) {
      costs[i] = cost_at(worker_topo, tech_, target_, to_widths(xs[i]));
    }
  });
  return costs;
}

core::Specs SizingProblem::measure(const std::vector<double>& x) {
  ++simulations_;
  const spice::EvalResult r = spice::evaluate(topo_, tech_, to_widths(x));
  return core::Specs{r.metrics.gain_db, r.metrics.bw_3db_hz, r.metrics.ugf_hz};
}

}  // namespace ota::baselines
