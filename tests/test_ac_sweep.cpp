// AC engine tests.
//
// Three property groups:
//  * AcSweepTest — the pooled transfer_sweep() agrees bit-for-bit with a
//    per-point transfer() loop (the path spice::measure_ac scans with), and
//    one measurement dispatches no pool work.
//  * DeterminismTest — pool width is a pure performance knob for sweeps
//    (the fixture name opts these tests into the TSan CI gate alongside the
//    dataset/training determinism suites).
//  * LuMultiRhs — the buffer-reusing LU API (factor_swap, solve_into)
//    against freshly constructed decompositions.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "linalg/lu.hpp"
#include "spice/measure.hpp"
#include "spice/testbench.hpp"

namespace ota::spice {
namespace {

using Cplx = std::complex<double>;

std::vector<double> log_grid(double f_lo, double f_hi, int points) {
  std::vector<double> freqs;
  const double ratio = std::pow(f_hi / f_lo, 1.0 / (points - 1));
  double f = f_lo;
  for (int i = 0; i < points; ++i, f *= ratio) freqs.push_back(f);
  return freqs;
}

// A sized 5T-OTA analysis (widths known to bias correctly from test_ac).
AcAnalysis make_ota_analysis(circuit::Topology& topo,
                             const device::Technology& tech) {
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  return AcAnalysis(topo.netlist, tech, dc);
}

class AcSweepTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(AcSweepTest, TransferSweepMatchesPerPointTransferBitIdentical) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(10.0, 1e9, 33);

  const auto batched = ac.transfer_sweep(freqs, "vout");
  ASSERT_EQ(batched.size(), freqs.size());
  for (size_t i = 0; i < freqs.size(); ++i) {
    const Cplx single = ac.transfer(freqs[i], "vout");
    EXPECT_EQ(batched[i].real(), single.real()) << "point " << i;
    EXPECT_EQ(batched[i].imag(), single.imag()) << "point " << i;
  }
}

TEST_F(AcSweepTest, RcSweepMatchesClosedForm) {
  circuit::Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "out", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);

  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  const auto freqs = log_grid(1e3, 1e8, 24);
  const auto h = ac.transfer_sweep(freqs, "out");
  for (size_t i = 0; i < freqs.size(); ++i) {
    const Cplx ref = 1.0 / Cplx(1.0, freqs[i] / fc);
    EXPECT_NEAR(std::abs(h[i] - ref), 0.0, 1e-9) << "f=" << freqs[i];
  }
}

TEST_F(AcSweepTest, TransferSweepOfGroundIsZero) {
  circuit::Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "0", 1e3);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  for (const Cplx& v : ac.transfer_sweep({1.0, 1e6}, "0")) {
    EXPECT_EQ(v, Cplx{});
  }
}

TEST_F(AcSweepTest, EmptySweepReturnsEmpty) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  EXPECT_TRUE(ac.transfer_sweep({}, "vout").empty());
}

TEST_F(AcSweepTest, MeasureUsesOneSweepAndMatchesLegacyShape) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const AcMetrics m = measure_ac(ac, "vout");
  // Table I neighborhood for the 5T-OTA at this arbitrary sizing.
  EXPECT_GT(m.gain_db, 10.0);
  EXPECT_LT(m.gain_db, 32.0);
  EXPECT_GT(m.ugf_hz, m.bw_3db_hz);
  EXPECT_GT(m.phase_margin_deg, 0.0);
  // The 3 dB point really is the 3 dB point on the batch path.
  const double h_bw = std::abs(ac.transfer(m.bw_3db_hz, "vout"));
  EXPECT_NEAR(h_bw, m.gain_linear / std::numbers::sqrt2,
              m.gain_linear * 1e-3);
}

TEST_F(AcSweepTest, EvaluateDispatchesNoPoolWork) {
  // measure_ac scans on the calling thread: an evaluation, which runs inside
  // an outer parallel region, records no pool work of its own.
  auto topo = circuit::make_5t_ota(tech);
  const stats::ScopedStats scoped;
  (void)evaluate(topo, tech, {4e-6, 12e-6, 6e-6});
  const auto sites = stats::snapshot();
  const auto count = [&sites](const char* site) -> uint64_t {
    const auto it = sites.find(site);
    return it == sites.end() ? 0 : it->second.count;
  };
  EXPECT_EQ(count("spice.ac.measure"), 1u);
  EXPECT_EQ(count("par.pool.dispatch"), 0u);
  EXPECT_EQ(count("par.pool.items"), 0u);
}

// ---------------------------------------------------------------------------
// Pool-width bit-identity (the fixture name registers these under the
// DeterminismTest.* umbrella that the TSan preset/CI job selects).

class DeterminismTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(DeterminismTest, AcTransferSweepBitIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_2s_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6, 12e-6, 3e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  const AcAnalysis ac(topo.netlist, tech, dc);
  const auto freqs = log_grid(1.0, 1e10, 48);

  par::ThreadPool pool1(1), pool8(8), pool3(3);
  const auto serial = ac.transfer_sweep(freqs, topo.output_node, pool1);
  // An odd worker count chunks the grid differently but must agree too.
  for (par::ThreadPool* pool : {&pool8, &pool3}) {
    const auto wide = ac.transfer_sweep(freqs, topo.output_node, *pool);
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].real(), wide[i].real())
          << "point " << i << ", " << pool->size() << " workers";
      EXPECT_EQ(serial[i].imag(), wide[i].imag())
          << "point " << i << ", " << pool->size() << " workers";
    }
  }
}

}  // namespace
}  // namespace ota::spice

// ---------------------------------------------------------------------------
// Buffer-reusing LU against freshly constructed decompositions.

namespace ota::linalg {
namespace {

Matrix<double> random_system(int n, uint64_t seed) {
  Rng rng(seed);
  Matrix<double> a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(static_cast<size_t>(r), static_cast<size_t>(c)) = rng.normal();
    }
    a(static_cast<size_t>(r), static_cast<size_t>(r)) += n;
  }
  return a;
}

TEST(LuMultiRhs, SolveIntoReusesCallerBuffers) {
  const Matrix<double> a = random_system(6, 7);
  const LuDecomposition<double> lu(a);

  std::vector<double> b(6, 1.0), x;
  lu.solve_into(b, x);
  const double* data_before = x.data();
  b[3] = -2.0;
  lu.solve_into(b, x);
  EXPECT_EQ(x.data(), data_before);  // same allocation, refreshed contents
  EXPECT_EQ(x, lu.solve(b));
}

TEST(LuMultiRhs, FactorSwapMatchesFactorAndRecyclesBuffers) {
  LuDecomposition<double> lu;
  const std::vector<double> b(7, 1.0);
  std::vector<const double*> buffers;
  Matrix<double> scratch;
  for (uint64_t seed : {21u, 22u, 23u}) {
    const Matrix<double> a = random_system(7, seed);
    scratch = a;  // reuses scratch's capacity after the first round trip
    const double* assembled = scratch.data().data();
    lu.factor_swap(scratch);
    buffers.push_back(assembled);
    EXPECT_EQ(lu.solve(b), LuDecomposition<double>(a).solve(b)) << seed;
  }
  // The swap recycles two buffers in steady state: the matrix assembled on
  // round k is the same allocation the decomposition held on round k-1.
  EXPECT_EQ(buffers[0], buffers[2]);
}

TEST(LuMultiRhs, RhsSizeMismatchThrows) {
  const Matrix<double> a = random_system(4, 3);
  const LuDecomposition<double> lu(a);
  std::vector<double> bv(3, 1.0), xv;
  EXPECT_THROW(lu.solve_into(bv, xv), InvalidArgument);
}

}  // namespace
}  // namespace ota::linalg
