// Small-signal AC analysis.
//
// Linearizes every MOSFET at a DC operating point into {gm, gds, Cgs, Cds}
// (exactly the four device parameters the paper's transformer predicts) and
// solves the complex MNA system at each requested frequency.  Voltage and
// current sources contribute their `ac` values as excitations.
//
// The analysis is split into a one-time structural phase and a cheap
// per-frequency numeric phase.  Construction stamps the frequency-independent
// conductance pattern G (resistors, gm/gds, voltage-source rows), the
// capacitance pattern C (capacitors, Cgs, Cds), and the source excitation
// vector once; each frequency point then only assembles Y(w) = G + jwC into
// reusable scratch, factors, and solves — no netlist walk, no name lookups,
// no per-point allocation.  sweep()/transfer_sweep() fan frequency points
// across an ota::par pool with results written to caller-indexed slots, so
// sweep output is bit-identical for any pool width (the repository-wide
// determinism contract).
#pragma once

#include <complex>
#include <functional>
#include <vector>

#include "circuit/netlist.hpp"
#include "device/technology.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "par/thread_pool.hpp"
#include "spice/dc.hpp"

namespace ota::spice {

/// Reusable AC analysis for one netlist + operating point.  Construction
/// extracts the small-signal model and the MNA stamp pattern once; every
/// solve path (single point or batched sweep) runs the cached numeric phase.
class AcAnalysis {
 public:
  /// Throws InvalidArgument when the netlist has no MNA unknowns.
  AcAnalysis(const circuit::Netlist& netlist, const device::Technology& tech,
             const DcSolution& dc);

  /// Complex node voltages at frequency `f_hz`, indexed by NodeId.  A thin
  /// wrapper over the batch path's numeric phase, run against per-thread
  /// scratch so repeated single-point calls stay allocation-free too.
  std::vector<std::complex<double>> solve(double f_hz) const;

  /// Transfer value at the named node (the excitation amplitudes are encoded
  /// in the sources' ac values, e.g. a +/-0.5 differential pair of sources).
  std::complex<double> transfer(double f_hz, const std::string& node) const;

  /// Batched sweep: node-voltage vectors (as solve()) for every frequency,
  /// in input order, with the points fanned out on `pool`.  Results are
  /// bit-identical for every pool width.  Callers already inside an outer
  /// parallel region (spice::measure_ac under dataset generation or
  /// campaign evaluation) pass an inline pool.
  std::vector<std::vector<std::complex<double>>> sweep(
      const std::vector<double>& freqs,
      par::ThreadPool& pool = par::global_pool()) const;

  /// Batched transfer(): the named node's value at every frequency.
  std::vector<std::complex<double>> transfer_sweep(
      const std::vector<double>& freqs, const std::string& node,
      par::ThreadPool& pool = par::global_pool()) const;

  /// Small-signal device parameters used by this analysis.
  const std::map<std::string, device::SmallSignal>& devices() const {
    return devices_;
  }

  /// Number of MNA unknowns (node voltages + source branch currents).
  int system_size() const { return size_; }

 private:
  /// Per-worker scratch for the numeric phase; one per sweep chunk.
  struct Workspace {
    linalg::MatrixC y;
    linalg::LuDecomposition<std::complex<double>> lu;
    std::vector<std::complex<double>> x;
  };

  /// Numeric phase for one point: assemble Y(w) = G + jwC, factor, solve.
  /// Leaves the MNA solution in ws.x.
  void solve_point(double f_hz, Workspace& ws) const;

  /// The shared sweep scaffold: solves every frequency across the pool
  /// (per-chunk workspaces, caller-indexed order) and hands each solved
  /// point to `sink(index, ws)` for output extraction.
  void for_each_point(const std::vector<double>& freqs, par::ThreadPool& pool,
                      const std::function<void(size_t, const Workspace&)>&
                          sink) const;

  /// Repacks an MNA solution into NodeId-indexed node voltages.
  std::vector<std::complex<double>> node_voltages(const Workspace& ws) const;

  const circuit::Netlist& netlist_;
  std::map<std::string, device::SmallSignal> devices_;
  int size_ = 0;               ///< MNA system size
  linalg::MatrixD g_;          ///< frequency-independent (conductance) stamps
  linalg::MatrixD c_;          ///< capacitance stamps, scaled by w per point
  std::vector<std::complex<double>> rhs_;  ///< cached source excitation
};

}  // namespace ota::spice
