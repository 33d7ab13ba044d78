// Frequency-response measurements: the three performance metrics of the paper
// (DC gain, 3 dB bandwidth, unity-gain frequency) plus phase margin.
//
// All measurements ride the batched AC path: one coarse log-spaced
// transfer_sweep() covers the whole [f_low, f_high] scan (shared by the gain
// readout and both crossing searches), and only the final bisection
// refinements solve individual points.  Everything runs on the calling
// thread: measurements execute inside outer parallel regions (dataset
// generation, campaign evaluation), which already fill the workers.
#pragma once

#include <optional>
#include <string>

#include "spice/ac.hpp"

namespace ota::spice {

/// The specification triple of the paper (Section IV-A): gain, 3 dB
/// bandwidth, and unity-gain frequency.
struct AcMetrics {
  double gain_db = 0.0;        ///< low-frequency gain [dB]
  double gain_linear = 0.0;    ///< low-frequency gain magnitude [V/V]
  double bw_3db_hz = 0.0;      ///< -3 dB bandwidth [Hz]
  double ugf_hz = 0.0;         ///< unity-gain frequency [Hz]; 0 if gain < 1
  double phase_margin_deg = 0.0;  ///< 180 + phase at the UGF [deg]; 0 if no UGF
};

struct MeasureOptions {
  double f_low = 1.0;       ///< frequency standing in for DC [Hz]
  double f_high = 1e12;     ///< upper limit of crossover searches [Hz]
  int points_per_decade = 8;  ///< coarse-scan density before bisection
  double rel_tol = 1e-6;    ///< bisection relative frequency tolerance
};

/// Measures gain / BW / UGF / PM at the named output node over one coarse
/// sweep call plus bisection refinements.
AcMetrics measure_ac(const AcAnalysis& ac, const std::string& output_node,
                     const MeasureOptions& opt = {});

/// Finds the frequency at which |H| crosses `target` (falling), between
/// f_low and f_high, or nullopt when no crossing exists.
std::optional<double> find_falling_crossing(const AcAnalysis& ac,
                                            const std::string& output_node,
                                            double target,
                                            const MeasureOptions& opt = {});

}  // namespace ota::spice
