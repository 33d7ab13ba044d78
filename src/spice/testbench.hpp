// OTA testbench: one-call evaluation of a sized topology.
//
// Wraps DC solve + AC measurement + region classification — the exact loop
// the paper's data-generation stage (OCEAN scripts) and Stage IV verification
// run per candidate sizing.  The AC measurement rides the batched sweep
// engine (one coarse transfer_sweep per evaluation on the calling thread,
// see spice/measure.hpp).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "spice/measure.hpp"

namespace ota::spice {

/// Everything minispice knows about one sized design.
struct EvalResult {
  AcMetrics metrics;
  std::map<std::string, device::SmallSignal> devices;  ///< per-MOSFET params
  DcSolution dc;
  bool regions_ok = false;  ///< all match-group region requirements satisfied
  bool saturation_ok = false;  ///< all required devices in saturation
};

/// Evaluates a topology with the given widths (one per match group).
/// Throws ConvergenceError when the DC solve fails.
EvalResult evaluate(circuit::Topology& topology, const device::Technology& tech,
                    const std::vector<double>& widths,
                    const MeasureOptions& opt = {});

/// Evaluates the topology at its current widths.
EvalResult evaluate_current(circuit::Topology& topology,
                            const device::Technology& tech,
                            const MeasureOptions& opt = {});

/// Input common-mode range: sweeps the input common mode and returns the
/// [lo, hi] window over which every required device stays in saturation
/// (the paper's ICMR sweep of Section IV-A), or nullopt when empty.
std::optional<std::pair<double, double>> input_common_mode_range(
    circuit::Topology& topology, const device::Technology& tech,
    double v_step = 0.05);

}  // namespace ota::spice
