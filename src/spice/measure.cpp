#include "spice/measure.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <optional>
#include <vector>

#include "common/stats.hpp"

namespace ota::spice {

namespace {

// The fixed measurement setup (see measure.hpp).
constexpr double kFLow = 1.0;       // frequency standing in for DC [Hz]
constexpr double kFHigh = 1e12;     // upper limit of crossover searches [Hz]
constexpr int kPointsPerDecade = 8;  // coarse-scan density before bisection
constexpr double kRelTol = 1e-6;    // bisection relative frequency tolerance

// The coarse log-spaced scan grid: kFLow, then successive multiplications by
// 10^(1/kPointsPerDecade) up to kFHigh (with the historical epsilon slack).
// Built by repeated multiplication so the grid values match the lazy scan
// the pre-batched implementation performed point by point.
std::vector<double> scan_grid() {
  const double step = std::pow(10.0, 1.0 / kPointsPerDecade);
  std::vector<double> grid;
  for (double f = kFLow;; f *= step) {
    grid.push_back(f);
    if (!(f * step <= kFHigh * (1.0 + 1e-12))) break;
  }
  return grid;
}

// The node's transfer at every grid point, one transfer() per point.
std::vector<std::complex<double>> coarse_scan(const AcAnalysis& ac,
                                              const std::vector<double>& grid,
                                              const std::string& node) {
  std::vector<std::complex<double>> h(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) h[i] = ac.transfer(grid[i], node);
  return h;
}

// Locates the falling crossing of `target` on a precomputed coarse scan and
// refines it by bisection in log-frequency space.
std::optional<double> crossing_from_scan(const AcAnalysis& ac,
                                         const std::string& node,
                                         double target,
                                         const std::vector<double>& grid,
                                         const std::vector<double>& mags) {
  if (mags.empty() || mags.front() <= target) {
    return std::nullopt;  // already below at the start
  }
  for (size_t i = 1; i < grid.size(); ++i) {
    if (mags[i] > target) continue;
    double lo = grid[i - 1], hi = grid[i];
    while (hi / lo - 1.0 > kRelTol) {
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

std::vector<double> magnitudes(const std::vector<std::complex<double>>& h) {
  std::vector<double> m(h.size());
  for (size_t i = 0; i < h.size(); ++i) m[i] = std::abs(h[i]);
  return m;
}

}  // namespace

AcMetrics measure_ac(const AcAnalysis& ac, const std::string& node) {
  STAT_REGION("spice.ac.measure");
  AcMetrics m;
  // One coarse scan serves the DC-gain readout and both crossing searches.
  const std::vector<double> grid = scan_grid();
  const std::vector<std::complex<double>> h = coarse_scan(ac, grid, node);
  const std::vector<double> mags = magnitudes(h);

  const std::complex<double> h0 = h.front();
  m.gain_linear = mags.front();
  m.gain_db = 20.0 * std::log10(std::max(m.gain_linear, 1e-30));

  if (auto bw = crossing_from_scan(ac, node, m.gain_linear / std::numbers::sqrt2,
                                   grid, mags)) {
    m.bw_3db_hz = *bw;
  }
  if (m.gain_linear > 1.0) {
    if (auto ugf = crossing_from_scan(ac, node, 1.0, grid, mags)) {
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
