// Frequency-response measurements: the three performance metrics of the paper
// (DC gain, 3 dB bandwidth, unity-gain frequency) plus phase margin.
//
// Every measurement runs one fixed setup, as the paper runs every Spectre
// simulation with one.  A coarse scan solves 97 points from 1 Hz to 1 THz at
// 8 points per decade (1 Hz stands in for DC); it serves the gain readout
// and both crossing searches.  Each crossing is then refined by bisection in
// log-frequency until the bracket's relative width is at most 1e-6.  Every
// point is one AcAnalysis::transfer() on the calling thread: measurements
// execute inside outer parallel regions (dataset generation, campaign
// evaluation, baseline populations), which already fill the workers.
#pragma once

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

/// Measures gain / BW / UGF / PM at the named output node over one coarse
/// scan plus bisection refinements.
AcMetrics measure_ac(const AcAnalysis& ac, const std::string& output_node);

}  // namespace ota::spice
