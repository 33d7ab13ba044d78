// The sizing problem as seen by the Table IX baseline optimizers.
//
// All prior methods the paper compares against (simulated annealing [4], PSO
// [5], Bayesian optimization [21], differential evolution [22]) share the
// same structure: a black-box objective whose every evaluation is a SPICE
// simulation.  SizingProblem wraps one topology + target specification into
// that black box, normalizes widths into the unit cube (log-scaled over the
// paper's sweep range [core::kWidthMin, core::kWidthMax]), and counts
// simulator invocations — the key efficiency metric of Table IX.
#pragma once

#include <vector>

#include "circuit/topologies.hpp"
#include "core/dataset.hpp"
#include "par/thread_pool.hpp"
#include "spice/testbench.hpp"

namespace ota::baselines {

class SizingProblem {
 public:
  SizingProblem(circuit::Topology topology, const device::Technology& tech,
                core::Specs target);

  /// Number of optimization variables (match groups).
  size_t dims() const { return topo_.match_groups.size(); }

  /// Cost of a point in the normalized unit cube.  Zero means every
  /// specification is met; positive values are summed relative shortfalls.
  /// Every call runs one full simulation (counted).
  double evaluate(const std::vector<double>& x);

  /// Costs of a whole population, one counted simulation per point.  Points
  /// are independent and evaluated concurrently on `pool` against per-worker
  /// Topology copies.  Results are written in input order and are
  /// bit-identical to xs.size() sequential evaluate() calls, for any pool
  /// width.
  std::vector<double> evaluate_batch(const std::vector<std::vector<double>>& xs,
                                     par::ThreadPool& pool = par::global_pool());

  /// Simulator invocations so far.
  int simulations() const { return simulations_; }

  /// Converts a unit-cube point to physical widths (log-space mapping).
  std::vector<double> to_widths(const std::vector<double>& x) const;

  /// Measured specs at a point (runs one counted simulation).
  core::Specs measure(const std::vector<double>& x);

  const core::Specs& target() const { return target_; }

  /// True when the cost corresponds to all specs met.
  static bool met(double cost) { return cost <= 0.0; }

 private:
  circuit::Topology topo_;
  const device::Technology& tech_;
  core::Specs target_;
  int simulations_ = 0;
};

/// Shared result record for all baseline optimizers.
struct OptResult {
  std::vector<double> best_x;
  double best_cost = 1e300;
  bool success = false;      ///< best_cost reached zero
  int simulations = 0;       ///< SPICE invocations consumed
  int iterations = 0;        ///< optimizer outer iterations executed
  double seconds = 0.0;
};

}  // namespace ota::baselines
