// OTA testbench: one-call evaluation of a sized topology.
//
// An evaluation is two phases, the loop the paper's data-generation stage
// (OCEAN scripts) and Stage IV verification run per candidate sizing:
// operating_point() solves DC, takes the small-signal map and classifies
// regions; measure() runs the AC measurement at that operating point.
// evaluate() applies widths and runs both.  The AC phase is about 90% of an
// evaluation, so callers that filter on regions (dataset generation, the
// ICMR sweep) run operating_point() alone and measure only what passes.
// Both phases run minispice's one fixed setup (dc.hpp, measure.hpp) on the
// calling thread.
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
  AcMetrics metrics;  ///< zero until measure() fills it
  std::map<std::string, device::SmallSignal> devices;  ///< per-MOSFET params
  DcSolution dc;
  bool regions_ok = false;  ///< all match-group region requirements satisfied
  bool saturation_ok = false;  ///< all required devices in saturation
};

/// DC phase at the topology's current widths: the DC solve, the per-MOSFET
/// small-signal map and the region/saturation checks.  Leaves `metrics` zero.
/// Throws ConvergenceError when the DC solve fails.
EvalResult operating_point(const circuit::Topology& topology,
                           const device::Technology& tech);

/// AC phase: measures gain / BW / UGF / PM at `r`'s operating point into
/// `r.metrics`.  `r` must come from operating_point() on this topology at its
/// current widths.  Throws ConvergenceError when an AC solve is singular.
void measure(const circuit::Topology& topology, const device::Technology& tech,
             EvalResult& r);

/// Applies `widths` (one per match group) and runs both phases.  Throws
/// ConvergenceError when the DC solve fails.
EvalResult evaluate(circuit::Topology& topology, const device::Technology& tech,
                    const std::vector<double>& widths);

/// Input common-mode range: sweeps the input common mode in steps of `v_step`
/// and returns the [lo, hi] window over which every required device stays in
/// saturation (the paper's ICMR sweep of Section IV-A), or nullopt when
/// empty.  Solves DC only.  Throws InvalidArgument unless `v_step` is finite
/// and > 0.  The input sources' DC levels are restored on every exit.
std::optional<std::pair<double, double>> input_common_mode_range(
    circuit::Topology& topology, const device::Technology& tech,
    double v_step = 0.05);

}  // namespace ota::spice
