// AC sweep throughput: batched engine vs the naive per-point path.
//
// Sweeps one sized 5T-OTA over a log-frequency grid three ways and gates the
// result through the exit code:
//
//  * naive reference — re-stamps the full complex MNA matrix from the netlist
//    and re-factors it at every point (the pre-batched AcAnalysis::solve, kept
//    here verbatim as the honest baseline);
//  * batched, 1..N threads — AcAnalysis::transfer_sweep over the cached
//    structural phase, fanned across the ota::par pool.
//
// Hard gates: every batched run must be bit-identical to the 1-thread batched
// run AND to a per-point solve() loop (thread count and batching are pure
// performance knobs); the batched path must agree with the naive reference to
// 1e-9 relative; and outside smoke mode on a >=4-hw-thread host the best
// batched run must clear 2x the naive points/sec.
//
// OTA_AC_SMOKE=1 shrinks the grid and sweeps {1, 4} threads only (the
// Release CI job runs that mode).  Results are written as JSON (path from
// OTA_BENCH_JSON, default BENCH_ac.json) so scripts/bench_snapshot.sh can
// archive the perf trajectory.
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "common.hpp"
#include "linalg/lu.hpp"
#include "par/thread_pool.hpp"
#include "spice/ac.hpp"

namespace {

using Cplx = std::complex<double>;
using ota::circuit::kGround;

// The pre-batched per-point path: stamp the complex MNA system from the
// netlist and factor it, once per frequency.  Kept byte-for-byte equivalent
// to the old AcAnalysis::solve so the speedup figure measures exactly what
// the batched engine removed (per-point stamping, name lookups, allocation).
Cplx naive_transfer(const ota::circuit::Netlist& nl,
                    const std::map<std::string, ota::device::SmallSignal>& devs,
                    double f_hz, ota::circuit::NodeId out_node) {
  const int n_nodes = nl.node_count();
  const int n_vsrc = static_cast<int>(nl.vsources().size());
  const int size = n_nodes - 1 + n_vsrc;
  const double omega = 2.0 * std::numbers::pi * f_hz;
  const Cplx jw{0.0, omega};

  ota::linalg::MatrixC y(static_cast<size_t>(size), static_cast<size_t>(size));
  std::vector<Cplx> rhs(static_cast<size_t>(size), Cplx{});

  auto vi = [&](ota::circuit::NodeId id) { return static_cast<size_t>(id - 1); };
  auto stamp_y = [&](ota::circuit::NodeId a, ota::circuit::NodeId b, Cplx g) {
    if (a != kGround) y(vi(a), vi(a)) += g;
    if (b != kGround) y(vi(b), vi(b)) += g;
    if (a != kGround && b != kGround) {
      y(vi(a), vi(b)) -= g;
      y(vi(b), vi(a)) -= g;
    }
  };
  auto stamp_vccs = [&](ota::circuit::NodeId out_from, ota::circuit::NodeId out_to,
                        ota::circuit::NodeId cp, ota::circuit::NodeId cn,
                        double g) {
    if (out_from != kGround && cp != kGround) y(vi(out_from), vi(cp)) += g;
    if (out_from != kGround && cn != kGround) y(vi(out_from), vi(cn)) -= g;
    if (out_to != kGround && cp != kGround) y(vi(out_to), vi(cp)) -= g;
    if (out_to != kGround && cn != kGround) y(vi(out_to), vi(cn)) += g;
  };

  for (const auto& r : nl.resistors()) {
    stamp_y(r.a, r.b, Cplx{1.0 / r.resistance, 0.0});
  }
  for (const auto& c : nl.capacitors()) {
    stamp_y(c.a, c.b, jw * c.capacitance);
  }
  for (const auto& m : nl.mosfets()) {
    const auto& ss = devs.at(m.name);
    stamp_vccs(m.drain, m.source, m.gate, m.source, ss.gm);
    stamp_y(m.drain, m.source, Cplx{ss.gds, 0.0});
    stamp_y(m.gate, m.source, jw * ss.cgs);
    stamp_y(m.drain, m.source, jw * ss.cds);
  }
  for (const auto& s : nl.isources()) {
    if (s.pos != kGround) rhs[vi(s.pos)] -= s.ac;
    if (s.neg != kGround) rhs[vi(s.neg)] += s.ac;
  }
  const auto& vsrcs = nl.vsources();
  for (int k = 0; k < n_vsrc; ++k) {
    const auto& s = vsrcs[static_cast<size_t>(k)];
    const size_t row = static_cast<size_t>(n_nodes - 1 + k);
    if (s.pos != kGround) {
      y(vi(s.pos), row) += 1.0;
      y(row, vi(s.pos)) += 1.0;
    }
    if (s.neg != kGround) {
      y(vi(s.neg), row) -= 1.0;
      y(row, vi(s.neg)) -= 1.0;
    }
    rhs[row] = s.ac;
  }

  const std::vector<Cplx> x =
      ota::linalg::LuDecomposition<Cplx>(std::move(y)).solve(rhs);
  return x[vi(out_node)];
}

struct Run {
  int threads = 0;
  double seconds = 0.0;
  double points_per_sec = 0.0;
  double speedup_vs_naive = 1.0;
};

/// Each path is timed as the best of this many runs (see best_seconds).
constexpr int kTimingRepeats = 5;

bool identical(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag()) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  const char* smoke_env = std::getenv("OTA_AC_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;
  const Scale sc = Scale::from_env();

  int points = 4096;
  if (smoke) {
    points = 512;
  } else if (sc.name == "tiny") {
    points = 1024;
  } else if (sc.name == "paper") {
    points = 32768;
  }

  std::printf("=== AC sweep runtime: batched AcAnalysis vs naive per-point "
              "(scale '%s'%s, %d points) ===\n",
              sc.name.c_str(), smoke ? ", smoke" : "", points);

  auto topo = circuit::make_5t_ota(tech());
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const spice::DcSolution dc = spice::solve_dc(topo.netlist, tech());
  const spice::AcAnalysis ac(topo.netlist, tech(), dc);
  const circuit::NodeId out_node = topo.netlist.find_node(topo.output_node);

  std::vector<double> freqs;
  freqs.reserve(static_cast<size_t>(points));
  const double ratio = std::pow(1e12 / 1.0, 1.0 / (points - 1));
  double f = 1.0;
  for (int i = 0; i < points; ++i, f *= ratio) freqs.push_back(f);

  // Naive reference: full restamp + factor per point.
  std::vector<Cplx> naive(freqs.size());
  const double naive_seconds = best_seconds(kTimingRepeats, [&] {
    for (size_t i = 0; i < freqs.size(); ++i) {
      naive[i] = naive_transfer(topo.netlist, ac.devices(), freqs[i], out_node);
    }
  });
  const double naive_pps =
      naive_seconds > 0.0 ? static_cast<double>(points) / naive_seconds : 0.0;
  std::printf("%8s %10s %14s %9s  (system size %d)\n", "path", "seconds",
              "points/s", "speedup", ac.system_size());
  std::printf("%8s %9.3fs %14.0f %8.2fx\n", "naive", naive_seconds, naive_pps,
              1.0);

  // Per-point loop on the batched path (solve() is a sweep of one) — the
  // reference every sweep below must match bit-for-bit.
  std::vector<Cplx> loop(freqs.size());
  for (size_t i = 0; i < freqs.size(); ++i) {
    loop[i] = ac.transfer(freqs[i], topo.output_node);
  }

  const std::vector<int> sweep_threads =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  std::vector<Run> runs;
  std::vector<Cplx> serial;
  bool bit_identical = true;
  for (int t : sweep_threads) {
    std::vector<Cplx> h;
    Run run;
    run.threads = t;
    run.seconds = best_seconds(
        kTimingRepeats,
        [&] { h = ac.transfer_sweep(freqs, topo.output_node, t); });
    run.points_per_sec =
        run.seconds > 0.0 ? static_cast<double>(points) / run.seconds : 0.0;
    run.speedup_vs_naive =
        naive_pps > 0.0 ? run.points_per_sec / naive_pps : 0.0;

    bool ok = identical(h, loop);
    if (runs.empty()) {
      serial = h;
    } else {
      ok = ok && identical(h, serial);
    }
    bit_identical = bit_identical && ok;
    std::printf("%5d th %9.3fs %14.0f %8.2fx  %s\n", t, run.seconds,
                run.points_per_sec, run.speedup_vs_naive,
                ok ? "bit-identical" : "DIVERGED");
    runs.push_back(run);
  }

  // Accuracy vs the naive stamps: the cached path sums capacitances before
  // scaling by omega, so agreement is to rounding, not bit-exact.
  double max_rel_err = 0.0;
  for (size_t i = 0; i < freqs.size(); ++i) {
    const double denom = std::max(std::abs(naive[i]), 1e-30);
    max_rel_err = std::max(max_rel_err, std::abs(serial[i] - naive[i]) / denom);
  }
  std::printf("max |batched - naive| / |naive| = %.3g\n", max_rel_err);

  std::vector<JsonObject> run_rows;
  for (const auto& r : runs) {
    run_rows.push_back(JsonObject()
                           .num("threads", r.threads)
                           .num("seconds", r.seconds, "%.4f")
                           .num("points_per_sec", r.points_per_sec, "%.0f")
                           .num("speedup_vs_naive", r.speedup_vs_naive,
                                "%.3f"));
  }
  if (!write_bench_json("BENCH_ac.json",
                        JsonObject()
                            .str("bench", "ac_sweep")
                            .str("scale", sc.name)
                            .boolean("smoke", smoke)
                            .num("points", points)
                            .num("system_size", ac.system_size())
                            .num("naive_points_per_sec",
                                 static_cast<long long>(naive_pps))
                            .num("max_rel_err_vs_naive", max_rel_err)
                            .boolean("bit_identical", bit_identical)
                            .array("runs", std::move(run_rows)))) {
    return 1;
  }

  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: batched sweep diverged from the per-point "
                 "reference (thread count / batching must be pure performance "
                 "knobs)\n");
    return 1;
  }
  if (max_rel_err > 1e-9) {
    std::fprintf(stderr, "FAIL: batched sweep disagrees with the naive stamps "
                 "beyond 1e-9 relative (%.3g)\n", max_rel_err);
    return 1;
  }
  if (!smoke && par::hardware_threads() >= 4) {
    // The floor sits at 2x for the best batched run: the cached numeric
    // phase alone typically clears it single-threaded, and the pool fan-out
    // stacks on top, so 2x leaves headroom for scheduler noise while still
    // catching a structural-caching regression.  Hosts with fewer than 4
    // hardware threads skip the floor (the bit-identity gates above are the
    // evidence there).
    constexpr double kRequiredSpeedup = 2.0;
    double best = 0.0;
    for (const Run& run : runs) best = std::max(best, run.speedup_vs_naive);
    if (best < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "FAIL: best batched sweep speedup %.2fx below the %.0fx "
                   "floor over the naive per-point path\n",
                   best, kRequiredSpeedup);
      return 1;
    }
  } else if (!smoke) {
    std::printf("(only %d hardware thread(s): throughput floor not enforced)\n",
                par::hardware_threads());
  }
  return 0;
}
