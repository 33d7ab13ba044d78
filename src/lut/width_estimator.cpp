#include "lut/width_estimator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace ota::lut {

namespace {

// The quantities a prediction carries: the only ones its scans read.
unsigned carried(const PredictedParams& p) {
  return (p.gm ? kGm : 0u) | (p.gds ? kGds : 0u) | (p.cds ? kCds : 0u) |
         (p.cgs ? kCgs : 0u) | (p.id ? kId : 0u);
}

// Candidate widths from ratioing predicted absolute parameters against the
// per-unit-width LUT outputs (Algorithm 1 lines 9-10), in gm, gds, Cds, Cgs,
// Id order.
struct Candidates {
  std::array<double, kNumQuantities> w{};
  size_t n = 0;
};

Candidates candidate_widths(const PredictedParams& p, const LutEntry& e) {
  Candidates ws;
  auto push = [&ws](const std::optional<double>& num, double den) {
    if (num && den > 0.0) ws.w[ws.n++] = *num / den;
  };
  push(p.gm, e.gm);
  push(p.gds, e.gds);
  push(p.cds, e.cds);
  push(p.cgs, e.cgs);
  push(p.id, e.id);
  return ws;
}

// cost(Vds) = sum over pairs |w_n - w_m| (Algorithm 1 line 11).
double pairwise_cost(const Candidates& ws) {
  double c = 0.0;
  for (size_t n = 0; n < ws.n; ++n) {
    for (size_t m = n + 1; m < ws.n; ++m) {
      c += std::fabs(ws.w[n] - ws.w[m]);
    }
  }
  return c;
}

// The Vds grid of the inner scan: `points` evenly spaced slices across the
// LUT's Vds axis, for the quantities `p` carries.  Built once per estimate.
std::vector<VdsSlice> vds_grid(const DeviceLut& lut, const PredictedParams& p,
                               int points) {
  if (points < 2) {
    throw InvalidArgument("width estimator: vds_scan_points must be at least 2");
  }
  const auto& axis = lut.vds_axis();
  const double lo = axis.front(), hi = axis.back();
  std::vector<VdsSlice> grid;
  grid.reserve(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    grid.push_back(lut.slice(lo + (hi - lo) * i / (points - 1), carried(p)));
  }
  return grid;
}

struct VdsScanResult {
  size_t index = 0;  ///< grid point of the minimum
  double cost = 0.0;
  double width = 0.0;
};

// Inner minimization over Vds at a fixed Vgs (Algorithm 1 line 12).
VdsScanResult scan_vds(const std::vector<VdsSlice>& grid,
                       const PredictedParams& p, double vgs) {
  VdsScanResult best{0, 1e300, 0.0};
  for (size_t i = 0; i < grid.size(); ++i) {
    const Candidates ws = candidate_widths(p, grid[i].at(vgs));
    if (ws.n < 2) continue;
    const double c = pairwise_cost(ws);
    if (c < best.cost) {
      best = VdsScanResult{i, c, ws.w[0]};
    }
  }
  return best;
}

}  // namespace

std::optional<WidthEstimate> estimate_width(const DeviceLut& lut,
                                            const PredictedParams& p,
                                            double vdd,
                                            const WidthEstimatorOptions& opt) {
  if (!p.gm || !p.id) {
    throw InvalidArgument("estimate_width: gm and id are required for gm/Id");
  }
  if (!(*p.id > 0.0) || !(*p.gm > 0.0)) {
    throw InvalidArgument("estimate_width: gm and id must be positive");
  }
  const std::vector<VdsSlice> grid = vds_grid(lut, p, opt.vds_scan_points);
  const double gmid = *p.gm / *p.id;  // line 4

  double vds_curr = vdd / 2.0;  // line 3
  double mincost_prev = 1e300;
  WidthEstimate result;

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    const double vds_prev = vds_curr;

    // Line 7: Vgs realizing the gm/Id point at the current Vds guess.
    const auto vgs = lut.find_vgs_for_gmid(gmid, vds_curr);
    if (!vgs) return std::nullopt;

    // Lines 8-12: candidate widths as functions of Vds; take the minimum of
    // the pairwise disagreement over the Vds axis.
    const VdsScanResult scan = scan_vds(grid, p, *vgs);

    result.vgs = *vgs;
    result.vds = grid[scan.index].vds();
    result.cost = scan.cost;
    // Line 16: W = w1(Vds) — the gm-derived candidate at the best Vds.
    const LutEntry e = grid[scan.index].at(*vgs);
    result.width = e.gm > 0 ? *p.gm / e.gm : scan.width;

    const double delta = mincost_prev - scan.cost;  // line 13
    if (std::fabs(delta) < opt.epsilon) break;      // line 5 guard
    mincost_prev = scan.cost;

    // Line 14: nudge the Vds guess along the improving direction.
    vds_curr = vds_curr + (delta > 0 ? 1.0 : -1.0) * opt.alpha * vds_prev;
    vds_curr = std::clamp(vds_curr, lut.vds_axis().front(), lut.vds_axis().back());
  }
  return result;
}

std::optional<WidthEstimate> estimate_width_scan(const DeviceLut& lut,
                                                 const PredictedParams& p,
                                                 const WidthEstimatorOptions& opt) {
  if (std::popcount(carried(p)) < 2) {
    throw InvalidArgument("estimate_width_scan: need at least two parameters");
  }
  const std::vector<VdsSlice> grid = vds_grid(lut, p, opt.vds_scan_points);

  WidthEstimate best;
  best.cost = 1e300;
  // A scan that beats `best` found at least two candidates at its minimum;
  // its width is the first of them.
  auto consider = [&](double vgs) {
    const VdsScanResult scan = scan_vds(grid, p, vgs);
    if (!(scan.cost < best.cost)) return;
    best.vgs = vgs;
    best.vds = grid[scan.index].vds();
    best.cost = scan.cost;
    best.width = scan.width;
  };
  const auto& vgs_axis = lut.vgs_axis();
  // Grid over Vgs (axis resolution) with the same inner Vds scan as above;
  // then one refinement pass around the winner at 8x density.
  for (double vgs : vgs_axis) consider(vgs);
  if (!(best.cost < 1e300)) return std::nullopt;

  const double step = (vgs_axis.back() - vgs_axis.front()) /
                      static_cast<double>(vgs_axis.size() - 1);
  for (double vgs = std::max(vgs_axis.front(), best.vgs - step);
       vgs <= std::min(vgs_axis.back(), best.vgs + step); vgs += step / 8.0) {
    consider(vgs);
  }
  best.iterations = 1;
  return best;
}

}  // namespace ota::lut
