#include "spice/dc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace ota::spice {

using circuit::kGround;
using circuit::Netlist;
using linalg::MatrixD;

namespace {

// The fixed solver setup (see dc.hpp).
constexpr int kMaxIterations = 200;
constexpr double kVTol = 1e-9;         // max node-voltage update [V]
constexpr double kResidualTol = 1e-9;  // max KCL residual [A]
constexpr double kDamping = 0.3;       // max node-voltage step per iteration [V]
constexpr double kVInit = 0.6;         // initial guess for floating nodes [V]
// gmin homotopy ladder, ending at 0 so the last rung solves the bare circuit.
constexpr double kGminSteps[] = {1e-3, 1e-5, 1e-7, 1e-9, 1e-12, 0.0};

// MNA unknown layout: node voltages for ids 1..N-1 at [id-1], then one branch
// current per voltage source at [N-1 + k].
struct Layout {
  int n_nodes;     // including ground
  int n_vsources;
  int size() const { return n_nodes - 1 + n_vsources; }
  int v_index(circuit::NodeId id) const { return id - 1; }  // id != 0
  int i_index(int vsrc) const { return n_nodes - 1 + vsrc; }
};

// Accumulates the residual f(x) and Jacobian J(x) of the MNA system.
// Node equations are KCL with "current leaving the node" positive.
class Assembler {
 public:
  Assembler(const Layout& lay) : lay_(lay), jac_(lay.size(), lay.size()), f_(lay.size(), 0.0) {}

  void add_residual(circuit::NodeId node, double current_leaving) {
    if (node != kGround) f_[lay_.v_index(node)] += current_leaving;
  }
  void add_jacobian(circuit::NodeId node, circuit::NodeId wrt, double dg) {
    if (node != kGround && wrt != kGround) {
      jac_(lay_.v_index(node), lay_.v_index(wrt)) += dg;
    }
  }
  void add_jacobian_current(circuit::NodeId node, int vsrc, double d) {
    if (node != kGround) jac_(lay_.v_index(node), lay_.i_index(vsrc)) += d;
  }
  double& row(int idx) { return f_[idx]; }
  MatrixD& jacobian() { return jac_; }
  std::vector<double>& residual() { return f_; }

 private:
  const Layout& lay_;
  MatrixD jac_;
  std::vector<double> f_;
};

double node_v(const std::vector<double>& x, const Layout& lay, circuit::NodeId id) {
  return id == kGround ? 0.0 : x[static_cast<size_t>(lay.v_index(id))];
}

// Builds f(x) and J(x) for the current iterate.
void assemble(const Netlist& nl, const device::Technology& tech,
              const Layout& lay, const std::vector<double>& x, double gmin,
              Assembler& as) {
  // gmin from every non-ground node to ground stabilizes early iterations.
  if (gmin > 0.0) {
    for (int id = 1; id < lay.n_nodes; ++id) {
      as.add_residual(id, gmin * node_v(x, lay, id));
      as.add_jacobian(id, id, gmin);
    }
  }

  for (const auto& r : nl.resistors()) {
    const double g = 1.0 / r.resistance;
    const double i = g * (node_v(x, lay, r.a) - node_v(x, lay, r.b));
    as.add_residual(r.a, i);
    as.add_residual(r.b, -i);
    as.add_jacobian(r.a, r.a, g);
    as.add_jacobian(r.a, r.b, -g);
    as.add_jacobian(r.b, r.a, -g);
    as.add_jacobian(r.b, r.b, g);
  }

  // Capacitors are open at DC: no stamp.

  for (const auto& s : nl.isources()) {
    // Current s.dc flows pos -> neg through the source, leaving node pos.
    as.add_residual(s.pos, s.dc);
    as.add_residual(s.neg, -s.dc);
  }

  const device::MosModel nmos(tech.nmos);
  const device::MosModel pmos(tech.pmos);
  for (const auto& m : nl.mosfets()) {
    const device::MosModel& model = m.type == device::MosType::Nmos ? nmos : pmos;
    const double vg = node_v(x, lay, m.gate);
    const double vd = node_v(x, lay, m.drain);
    const double vs = node_v(x, lay, m.source);
    const device::DcEval e = model.dc(vg, vd, vs, m.w, m.l);
    // e.id flows drain -> source inside the device: leaves the drain node,
    // enters the source node.
    as.add_residual(m.drain, e.id);
    as.add_residual(m.source, -e.id);
    as.add_jacobian(m.drain, m.gate, e.di_dvg);
    as.add_jacobian(m.drain, m.drain, e.di_dvd);
    as.add_jacobian(m.drain, m.source, e.di_dvs);
    as.add_jacobian(m.source, m.gate, -e.di_dvg);
    as.add_jacobian(m.source, m.drain, -e.di_dvd);
    as.add_jacobian(m.source, m.source, -e.di_dvs);
  }

  const auto& vsrcs = nl.vsources();
  for (int k = 0; k < static_cast<int>(vsrcs.size()); ++k) {
    const auto& s = vsrcs[static_cast<size_t>(k)];
    const double i_branch = x[static_cast<size_t>(lay.i_index(k))];
    // Branch current leaves the positive node into the source.
    as.add_residual(s.pos, i_branch);
    as.add_residual(s.neg, -i_branch);
    as.add_jacobian_current(s.pos, k, 1.0);
    as.add_jacobian_current(s.neg, k, -1.0);
    // Constraint row: v(pos) - v(neg) - V = 0.
    const int row = lay.i_index(k);
    as.row(row) += node_v(x, lay, s.pos) - node_v(x, lay, s.neg) - s.dc;
    if (s.pos != kGround) as.jacobian()(row, lay.v_index(s.pos)) += 1.0;
    if (s.neg != kGround) as.jacobian()(row, lay.v_index(s.neg)) -= 1.0;
  }
}

}  // namespace

DcSolution solve_dc(const Netlist& nl, const device::Technology& tech) {
  Layout lay{nl.node_count(), static_cast<int>(nl.vsources().size())};
  if (lay.size() == 0) throw InvalidArgument("solve_dc: empty netlist");

  std::vector<double> x(static_cast<size_t>(lay.size()), 0.0);
  for (int id = 1; id < lay.n_nodes; ++id) {
    x[static_cast<size_t>(lay.v_index(id))] = kVInit;
  }
  // Seed voltage-source-driven nodes at their source value (when grounded on
  // the other side) so the first iterations start near the final bias.
  for (const auto& s : nl.vsources()) {
    if (s.neg == kGround && s.pos != kGround) {
      x[static_cast<size_t>(lay.v_index(s.pos))] = s.dc;
    } else if (s.pos == kGround && s.neg != kGround) {
      x[static_cast<size_t>(lay.v_index(s.neg))] = -s.dc;
    }
  }

  STAT_REGION("spice.dc.solve");
  int total_iterations = 0;
  int gmin_retries = 0;
  int lu_failures = 0;
  // Recorded from a destructor so a throwing solve (ladder exhausted,
  // injected fault) still accounts for the Newton work it burned.
  struct RecordCounters {
    const int& iterations;
    const int& retries;
    ~RecordCounters() {
      STAT_COUNTER_ADD("spice.dc.newton_iterations", iterations);
      STAT_COUNTER_ADD("spice.dc.gmin_retries", retries);
    }
  } record{total_iterations, gmin_retries};
  for (double gmin : kGminSteps) {
    bool converged = false;
    try {
      // Injectable Newton failure at this gmin step: exercises exactly the
      // recovery below (retry at the next ladder rung) plus, at gmin == 0,
      // the caller-facing ConvergenceError path.
      FAULT_SITE_AS("spice.dc.newton", ConvergenceError);
      for (int it = 0; it < kMaxIterations; ++it) {
        ++total_iterations;
        Assembler as(lay);
        assemble(nl, tech, lay, x, gmin, as);

        double max_resid = 0.0;
        for (int r = 0; r < lay.n_nodes - 1; ++r) {
          max_resid = std::max(max_resid, std::fabs(as.residual()[static_cast<size_t>(r)]));
        }

        std::vector<double> dx;
        try {
          dx = linalg::LuDecomposition<double>(as.jacobian()).solve(as.residual());
        } catch (const ConvergenceError&) {
          ++lu_failures;  // singular at this gmin; the handler below retries
          throw;
        }

        double max_dv = 0.0;
        for (int r = 0; r < lay.n_nodes - 1; ++r) {
          double step = -dx[static_cast<size_t>(r)];
          step = std::clamp(step, -kDamping, kDamping);
          x[static_cast<size_t>(r)] += step;
          max_dv = std::max(max_dv, std::fabs(step));
        }
        for (int r = lay.n_nodes - 1; r < lay.size(); ++r) {
          x[static_cast<size_t>(r)] -= dx[static_cast<size_t>(r)];
        }

        if (max_dv < kVTol && max_resid < kResidualTol) {
          converged = true;
          break;
        }
      }
    } catch (const ConvergenceError& e) {
      // A singular Jacobian (or injected Newton fault) at a nonzero gmin is
      // recoverable: the next (smaller) ladder rung retries from the current
      // iterate.  Count it instead of silently breaking, so callers can see
      // how hard the ladder worked; at gmin == 0 there is no rung left.
      if (gmin == 0.0) {
        throw ConvergenceError(
            "solve_dc: gmin ladder exhausted (" + std::string(e.what()) +
            "; " + std::to_string(gmin_retries) + " gmin retries, " +
            std::to_string(lu_failures) + " LU failures)");
      }
      ++gmin_retries;
      continue;
    }
    if (!converged) {
      if (gmin == 0.0) {
        throw ConvergenceError(
            "solve_dc: Newton failed to converge after " +
            std::to_string(total_iterations) + " iterations (" +
            std::to_string(gmin_retries) + " gmin retries, " +
            std::to_string(lu_failures) + " LU failures)");
      }
      // Iteration budget exhausted at a nonzero rung: homotopy continues,
      // but the rung did not do its job — surface it as a retry too.
      ++gmin_retries;
    }
  }

  DcSolution sol;
  sol.v.assign(static_cast<size_t>(lay.n_nodes), 0.0);
  for (int id = 1; id < lay.n_nodes; ++id) {
    sol.v[static_cast<size_t>(id)] = x[static_cast<size_t>(lay.v_index(id))];
  }
  const auto& vsrcs = nl.vsources();
  for (int k = 0; k < static_cast<int>(vsrcs.size()); ++k) {
    sol.vsource_current[vsrcs[static_cast<size_t>(k)].name] =
        x[static_cast<size_t>(lay.i_index(k))];
  }
  sol.iterations = total_iterations;
  sol.gmin_retries = gmin_retries;
  sol.lu_failures = lu_failures;
  return sol;
}

std::map<std::string, device::SmallSignal> small_signal_map(
    const Netlist& nl, const device::Technology& tech, const DcSolution& dc) {
  const device::MosModel nmos(tech.nmos);
  const device::MosModel pmos(tech.pmos);
  std::map<std::string, device::SmallSignal> out;
  for (const auto& m : nl.mosfets()) {
    const device::MosModel& model = m.type == device::MosType::Nmos ? nmos : pmos;
    out[m.name] = model.small_signal(dc.v[static_cast<size_t>(m.gate)],
                                     dc.v[static_cast<size_t>(m.drain)],
                                     dc.v[static_cast<size_t>(m.source)], m.w, m.l);
  }
  return out;
}

}  // namespace ota::spice
