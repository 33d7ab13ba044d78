#include "spice/measure.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ota::spice {

namespace {

// The coarse log-spaced scan grid: f_low, then successive multiplications by
// 10^(1/points_per_decade) up to f_high (with the historical epsilon slack).
// Built by repeated multiplication so the grid values match the lazy scan
// the pre-batched implementation performed point by point.
std::vector<double> scan_grid(const MeasureOptions& opt) {
  if (!(opt.f_low > 0.0) || !std::isfinite(opt.f_low) ||
      !std::isfinite(opt.f_high) || opt.points_per_decade < 1 ||
      !(opt.rel_tol > 0.0)) {
    throw InvalidArgument(
        "measure: f_low/f_high must be finite, f_low > 0, "
        "points_per_decade >= 1, and rel_tol > 0");
  }
  const double step = std::pow(10.0, 1.0 / opt.points_per_decade);
  std::vector<double> grid;
  for (double f = opt.f_low;; f *= step) {
    grid.push_back(f);
    if (!(f * step <= opt.f_high * (1.0 + 1e-12))) break;
  }
  return grid;
}

// Locates the falling crossing of `target` on a precomputed coarse scan and
// refines it by bisection in log-frequency space (the only per-point solves
// in the measurement path).
std::optional<double> crossing_from_scan(const AcAnalysis& ac,
                                         const std::string& node,
                                         double target,
                                         const std::vector<double>& grid,
                                         const std::vector<double>& mags,
                                         const MeasureOptions& opt) {
  if (mags.empty() || mags.front() <= target) {
    return std::nullopt;  // already below at the start
  }
  for (size_t i = 1; i < grid.size(); ++i) {
    if (mags[i] > target) continue;
    double lo = grid[i - 1], hi = grid[i];
    while (hi / lo - 1.0 > opt.rel_tol) {
      const double mid = std::sqrt(lo * hi);
      if (std::abs(ac.transfer(mid, node)) > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return std::sqrt(lo * hi);
  }
  return std::nullopt;
}

// The coarse scan, swept on the calling thread through an inline pool.
// Measurements already run inside an outer parallel region (dataset attempts,
// baseline populations, Stage IV verifications on campaign-server threads,
// which are not pool workers); a global-pool sweep here would fan every
// ~100-point scan out into the pool those regions and the decode scheduler's
// rounds use.
std::vector<std::complex<double>> coarse_sweep(const AcAnalysis& ac,
                                               const std::vector<double>& grid,
                                               const std::string& node) {
  par::ThreadPool inline_pool(1);
  return ac.transfer_sweep(grid, node, inline_pool);
}

std::vector<double> magnitudes(const std::vector<std::complex<double>>& h) {
  std::vector<double> m(h.size());
  for (size_t i = 0; i < h.size(); ++i) m[i] = std::abs(h[i]);
  return m;
}

}  // namespace

std::optional<double> find_falling_crossing(const AcAnalysis& ac,
                                            const std::string& node,
                                            double target,
                                            const MeasureOptions& opt) {
  const std::vector<double> grid = scan_grid(opt);
  const std::vector<double> mags =
      magnitudes(coarse_sweep(ac, grid, node));
  return crossing_from_scan(ac, node, target, grid, mags, opt);
}

AcMetrics measure_ac(const AcAnalysis& ac, const std::string& node,
                     const MeasureOptions& opt) {
  STAT_REGION("spice.ac.measure");
  AcMetrics m;
  // One batched coarse sweep serves the DC-gain readout and both crossing
  // searches (the pre-batched path re-scanned the grid once per crossing).
  const std::vector<double> grid = scan_grid(opt);
  const std::vector<std::complex<double>> h = coarse_sweep(ac, grid, node);
  const std::vector<double> mags = magnitudes(h);

  const std::complex<double> h0 = h.front();
  m.gain_linear = mags.front();
  m.gain_db = 20.0 * std::log10(std::max(m.gain_linear, 1e-30));

  if (auto bw = crossing_from_scan(ac, node, m.gain_linear / std::numbers::sqrt2,
                                   grid, mags, opt)) {
    m.bw_3db_hz = *bw;
  }
  if (m.gain_linear > 1.0) {
    if (auto ugf = crossing_from_scan(ac, node, 1.0, grid, mags, opt)) {
      m.ugf_hz = *ugf;
      const std::complex<double> h_ugf = ac.transfer(*ugf, node);
      // Phase margin relative to the low-frequency phase (the loop inversion
      // is external to the measured open-loop transfer).
      double phase = std::arg(h_ugf / h0) * 180.0 / std::numbers::pi;
      m.phase_margin_deg = 180.0 + phase;
    }
  }
  return m;
}

}  // namespace ota::spice
