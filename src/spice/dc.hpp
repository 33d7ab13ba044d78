// Newton-Raphson DC operating-point solver over modified nodal analysis.
//
// This is the core of `minispice`, the in-repo stand-in for the paper's
// Spectre simulations (see DESIGN.md).  The circuits are small (tens of
// unknowns) so a dense Jacobian with LU solves is the right tool.  Robustness
// comes from update damping plus gmin stepping, which is sufficient for the
// stacked-transistor OTA topologies in this repository.
//
// Every solve runs one fixed setup, as the paper runs every Spectre
// simulation with one: floating nodes start at 0.6 V, each Newton update is
// clamped to 0.3 V per node, and a rung converges when both the largest node
// update and the largest KCL residual fall below 1e-9 (V, A) within 200
// iterations.  The gmin ladder adds 1e-3, 1e-5, 1e-7, 1e-9, 1e-12 and
// finally 0 S from every node to ground, each rung warm-starting the next.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "device/mos_model.hpp"
#include "device/technology.hpp"

namespace ota::spice {

/// Converged DC solution.
struct DcSolution {
  std::vector<double> v;  ///< node voltages indexed by NodeId (v[0] == 0)
  std::map<std::string, double> vsource_current;  ///< branch current per V source
  int iterations = 0;     ///< total Newton iterations across gmin steps
  /// Ladder rungs that failed (singular Jacobian, injected fault, or an
  /// exhausted iteration budget at a nonzero gmin) and were retried at the
  /// next rung.  0 in a healthy solve; nonzero flags a marginal bias point.
  int gmin_retries = 0;
  /// Singular-Jacobian LU factorizations absorbed by the ladder (a subset of
  /// the work behind gmin_retries, kept separate for diagnosis).
  int lu_failures = 0;

  double voltage(const circuit::Netlist& nl, const std::string& node) const {
    return v[static_cast<size_t>(nl.find_node(node))];
  }
};

/// Solves the DC operating point; throws ConvergenceError on failure.
DcSolution solve_dc(const circuit::Netlist& netlist,
                    const device::Technology& tech);

/// Small-signal parameters of every MOSFET at a DC solution, keyed by device
/// name.  This is what the data-generation stage records per design.
std::map<std::string, device::SmallSignal> small_signal_map(
    const circuit::Netlist& netlist, const device::Technology& tech,
    const DcSolution& dc);

}  // namespace ota::spice
