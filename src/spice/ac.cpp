#include "spice/ac.hpp"

#include <numbers>

#include "common/error.hpp"

namespace ota::spice {

using circuit::kGround;
using std::complex;
using Cplx = complex<double>;

AcAnalysis::AcAnalysis(const circuit::Netlist& netlist,
                       const device::Technology& tech, const DcSolution& dc)
    : netlist_(netlist), devices_(small_signal_map(netlist, tech, dc)) {
  const int n_nodes = netlist_.node_count();
  const int n_vsrc = static_cast<int>(netlist_.vsources().size());
  size_ = n_nodes - 1 + n_vsrc;
  if (size_ == 0) throw InvalidArgument("AcAnalysis: empty netlist");

  const size_t n = static_cast<size_t>(size_);
  g_.reset(n, n);
  c_.reset(n, n);
  rhs_.assign(n, Cplx{});

  auto vi = [&](circuit::NodeId id) { return static_cast<size_t>(id - 1); };
  // Admittance between two nodes (either may be ground) into matrix `m`.
  auto stamp_y = [&](linalg::MatrixD& m, circuit::NodeId a, circuit::NodeId b,
                     double g) {
    if (a != kGround) m(vi(a), vi(a)) += g;
    if (b != kGround) m(vi(b), vi(b)) += g;
    if (a != kGround && b != kGround) {
      m(vi(a), vi(b)) -= g;
      m(vi(b), vi(a)) -= g;
    }
  };
  // VCCS: current `g * v(cp, cn)` flowing from node `out_from` to `out_to`.
  auto stamp_vccs = [&](circuit::NodeId out_from, circuit::NodeId out_to,
                        circuit::NodeId cp, circuit::NodeId cn, double g) {
    if (out_from != kGround && cp != kGround) g_(vi(out_from), vi(cp)) += g;
    if (out_from != kGround && cn != kGround) g_(vi(out_from), vi(cn)) -= g;
    if (out_to != kGround && cp != kGround) g_(vi(out_to), vi(cp)) -= g;
    if (out_to != kGround && cn != kGround) g_(vi(out_to), vi(cn)) += g;
  };

  for (const auto& r : netlist_.resistors()) {
    stamp_y(g_, r.a, r.b, 1.0 / r.resistance);
  }
  for (const auto& c : netlist_.capacitors()) {
    stamp_y(c_, c.a, c.b, c.capacitance);
  }
  for (const auto& m : netlist_.mosfets()) {
    const auto& ss = devices_.at(m.name);
    // Uniform small-signal convention (both polarities): the drain-source
    // channel current is gm*v(g,s) + gds*v(d,s), flowing drain -> source.
    stamp_vccs(m.drain, m.source, m.gate, m.source, ss.gm);
    stamp_y(g_, m.drain, m.source, ss.gds);
    stamp_y(c_, m.gate, m.source, ss.cgs);
    stamp_y(c_, m.drain, m.source, ss.cds);
  }
  for (const auto& s : netlist_.isources()) {
    // AC current s.ac flows pos -> neg through the source: it leaves `pos`.
    if (s.pos != kGround) rhs_[vi(s.pos)] -= s.ac;
    if (s.neg != kGround) rhs_[vi(s.neg)] += s.ac;
  }
  const auto& vsrcs = netlist_.vsources();
  for (int k = 0; k < n_vsrc; ++k) {
    const auto& s = vsrcs[static_cast<size_t>(k)];
    const size_t row = static_cast<size_t>(n_nodes - 1 + k);
    if (s.pos != kGround) {
      g_(vi(s.pos), row) += 1.0;
      g_(row, vi(s.pos)) += 1.0;
    }
    if (s.neg != kGround) {
      g_(vi(s.neg), row) -= 1.0;
      g_(row, vi(s.neg)) -= 1.0;
    }
    rhs_[row] = s.ac;
  }
}

void AcAnalysis::solve_point(double f_hz, Workspace& ws) const {
  const size_t n = static_cast<size_t>(size_);
  const double omega = 2.0 * std::numbers::pi * f_hz;
  if (ws.y.rows() != n || ws.y.cols() != n) ws.y.reset(n, n);
  const std::vector<double>& g = g_.data();
  const std::vector<double>& c = c_.data();
  std::vector<Cplx>& y = ws.y.data();
  for (size_t i = 0; i < y.size(); ++i) y[i] = Cplx{g[i], omega * c[i]};
  // Swap, don't copy: the next point reassembles every entry of ws.y anyway,
  // so the decomposition's previous buffer serves as its scratch.
  ws.lu.factor_swap(ws.y);
  ws.lu.solve_into(rhs_, ws.x);
}

Cplx AcAnalysis::transfer(double f_hz, const std::string& node) const {
  const circuit::NodeId id = netlist_.find_node(node);
  if (id == kGround) return Cplx{};  // the reference node is identically zero
  // Per-thread scratch: measure_ac calls this ~135 times per measurement.
  // Different-size systems interleaving on one thread just trigger the size
  // check in solve_point.
  thread_local Workspace ws;
  solve_point(f_hz, ws);
  return ws.x[static_cast<size_t>(id - 1)];
}

std::vector<Cplx> AcAnalysis::transfer_sweep(const std::vector<double>& freqs,
                                             const std::string& node,
                                             par::ThreadPool& pool) const {
  const circuit::NodeId id = netlist_.find_node(node);
  std::vector<Cplx> out(freqs.size());
  if (id == kGround) return out;  // the reference node is identically zero
  pool.parallel_for(freqs.size(), [&](size_t begin, size_t end) {
    Workspace ws;
    for (size_t i = begin; i < end; ++i) {
      solve_point(freqs[i], ws);
      out[i] = ws.x[static_cast<size_t>(id - 1)];
    }
  });
  return out;
}

}  // namespace ota::spice
