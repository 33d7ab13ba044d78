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
// no per-point allocation.  transfer() solves one point on the calling
// thread; spice::measure_ac scans its grid with it.  transfer_sweep() fans
// frequency points across an ota::par pool with results written to
// caller-indexed slots, so its output is bit-identical for any pool width
// (the repository-wide determinism contract) and to a transfer() loop.
#pragma once

#include <complex>
#include <vector>

#include "circuit/netlist.hpp"
#include "device/technology.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "par/thread_pool.hpp"
#include "spice/dc.hpp"

namespace ota::spice {

/// Reusable AC analysis for one netlist + operating point.  Construction
/// extracts the small-signal model and the MNA stamp pattern once; both
/// solve paths (single point and pooled sweep) run the cached numeric phase.
class AcAnalysis {
 public:
  /// Throws InvalidArgument when the netlist has no MNA unknowns.
  AcAnalysis(const circuit::Netlist& netlist, const device::Technology& tech,
             const DcSolution& dc);

  /// Transfer value at the named node (the excitation amplitudes are encoded
  /// in the sources' ac values, e.g. a +/-0.5 differential pair of sources).
  /// Runs against per-thread scratch, so repeated calls stay allocation-free.
  std::complex<double> transfer(double f_hz, const std::string& node) const;

  /// Batched transfer(): the named node's value at every frequency, in input
  /// order, with the points fanned out on `pool`.  Results are bit-identical
  /// for every pool width.
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
  /// Per-thread scratch for the numeric phase; one per sweep chunk.
  struct Workspace {
    linalg::MatrixC y;
    linalg::LuDecomposition<std::complex<double>> lu;
    std::vector<std::complex<double>> x;
  };

  /// Numeric phase for one point: assemble Y(w) = G + jwC, factor, solve.
  /// Leaves the MNA solution in ws.x.
  void solve_point(double f_hz, Workspace& ws) const;

  const circuit::Netlist& netlist_;
  std::map<std::string, device::SmallSignal> devices_;
  int size_ = 0;               ///< MNA system size
  linalg::MatrixD g_;          ///< frequency-independent (conductance) stamps
  linalg::MatrixD c_;          ///< capacitance stamps, scaled by w per point
  std::vector<std::complex<double>> rhs_;  ///< cached source excitation
};

}  // namespace ota::spice
