// Batched AC sweep engine tests.
//
// Three property groups:
//  * AcSweepTest — the batch path is THE path: sweep()/transfer_sweep()
//    agree bit-for-bit with per-point solve()/transfer() loops.
//  * DeterminismTest — pool width is a pure performance knob for sweeps
//    (the fixture name opts these tests into the TSan CI gate alongside the
//    dataset/training determinism suites).
//  * LuMultiRhs — the multi-RHS / solve-into-preallocated LU API against the
//    single-RHS reference on remainder-heavy sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "spice/measure.hpp"

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

void expect_bit_identical(const std::vector<std::vector<Cplx>>& a,
                          const std::vector<std::vector<Cplx>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "point " << i;
    for (size_t n = 0; n < a[i].size(); ++n) {
      EXPECT_EQ(a[i][n].real(), b[i][n].real()) << "point " << i << " node " << n;
      EXPECT_EQ(a[i][n].imag(), b[i][n].imag()) << "point " << i << " node " << n;
    }
  }
}

class AcSweepTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(AcSweepTest, SweepMatchesPerPointSolveBitIdentical) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(1.0, 1e10, 40);

  const auto batched = ac.sweep(freqs);
  std::vector<std::vector<Cplx>> looped;
  for (double f : freqs) looped.push_back(ac.solve(f));
  expect_bit_identical(batched, looped);
}

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
  EXPECT_TRUE(ac.sweep({}).empty());
  EXPECT_TRUE(ac.transfer_sweep({}, "vout").empty());
}

TEST_F(AcSweepTest, MeasureRejectsDegenerateScanConfig) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  MeasureOptions bad_f_low;
  bad_f_low.f_low = 0.0;  // the old lazy scan hung on this; now it throws
  EXPECT_THROW(measure_ac(ac, "vout", bad_f_low), InvalidArgument);
  MeasureOptions bad_density;
  bad_density.points_per_decade = 0;
  EXPECT_THROW(measure_ac(ac, "vout", bad_density), InvalidArgument);
  MeasureOptions bad_f_high;
  bad_f_high.f_high = std::numeric_limits<double>::infinity();
  EXPECT_THROW(measure_ac(ac, "vout", bad_f_high), InvalidArgument);
  MeasureOptions bad_rel_tol;
  bad_rel_tol.rel_tol = 0.0;  // bisection can never terminate below 1 ulp
  EXPECT_THROW(measure_ac(ac, "vout", bad_rel_tol), InvalidArgument);
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

// ---------------------------------------------------------------------------
// Pool-width bit-identity (the fixture name registers these under the
// DeterminismTest.* umbrella that the TSan preset/CI job selects).

class DeterminismTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(DeterminismTest, AcSweepBitIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(1.0, 1e11, 64);

  par::ThreadPool pool1(1), pool8(8), pool3(3);
  const auto serial = ac.sweep(freqs, pool1);
  expect_bit_identical(serial, ac.sweep(freqs, pool8));
  // An odd worker count chunks the grid differently but must agree too.
  expect_bit_identical(serial, ac.sweep(freqs, pool3));
}

TEST_F(DeterminismTest, AcTransferSweepBitIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_2s_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6, 12e-6, 3e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  const AcAnalysis ac(topo.netlist, tech, dc);
  const auto freqs = log_grid(1.0, 1e10, 48);

  par::ThreadPool pool1(1), pool8(8);
  const auto serial = ac.transfer_sweep(freqs, topo.output_node, pool1);
  const auto par8 = ac.transfer_sweep(freqs, topo.output_node, pool8);
  ASSERT_EQ(serial.size(), par8.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].real(), par8[i].real()) << "point " << i;
    EXPECT_EQ(serial[i].imag(), par8[i].imag()) << "point " << i;
  }
}

}  // namespace
}  // namespace ota::spice

// ---------------------------------------------------------------------------
// Multi-RHS LU against the single-RHS reference.

namespace ota::linalg {
namespace {

using Cplx = std::complex<double>;

template <typename T>
Matrix<T> random_system(int n, uint64_t seed);

template <>
Matrix<double> random_system<double>(int n, uint64_t seed) {
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

template <>
Matrix<Cplx> random_system<Cplx>(int n, uint64_t seed) {
  Rng rng(seed);
  Matrix<Cplx> a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(static_cast<size_t>(r), static_cast<size_t>(c)) =
          Cplx(rng.normal(), rng.normal());
    }
    a(static_cast<size_t>(r), static_cast<size_t>(r)) += Cplx(n, 0.0);
  }
  return a;
}

template <typename T>
void check_multi_rhs(int n, int k, uint64_t seed) {
  const Matrix<T> a = random_system<T>(n, seed);
  Rng rng(seed + 1000);
  Matrix<T> b(static_cast<size_t>(n), static_cast<size_t>(k));
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < k; ++j) {
      b(static_cast<size_t>(r), static_cast<size_t>(j)) = T(rng.normal());
    }
  }

  const LuDecomposition<T> lu(a);
  const Matrix<T> x = lu.solve(b);
  ASSERT_EQ(x.rows(), static_cast<size_t>(n));
  ASSERT_EQ(x.cols(), static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    std::vector<T> col(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      col[static_cast<size_t>(r)] = b(static_cast<size_t>(r), static_cast<size_t>(j));
    }
    const std::vector<T> ref = lu.solve(col);  // single-RHS reference
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(x(static_cast<size_t>(r), static_cast<size_t>(j)),
                ref[static_cast<size_t>(r)])
          << "n=" << n << " k=" << k << " row=" << r << " col=" << j;
    }
  }
}

TEST(LuMultiRhs, MatchesSingleRhsOnRemainderHeavySizes) {
  // Odd/prime system sizes and RHS counts so no blocking-friendly shape
  // hides an indexing bug.
  for (int n : {1, 2, 3, 5, 7, 13}) {
    for (int k : {1, 2, 3, 5, 9}) {
      check_multi_rhs<double>(n, k, 40 + static_cast<uint64_t>(n * 100 + k));
    }
  }
}

TEST(LuMultiRhs, ComplexMatchesSingleRhs) {
  for (int n : {2, 5, 11}) {
    for (int k : {1, 4, 7}) {
      check_multi_rhs<Cplx>(n, k, 90 + static_cast<uint64_t>(n * 100 + k));
    }
  }
}

TEST(LuMultiRhs, SolveIntoReusesCallerBuffers) {
  const Matrix<double> a = random_system<double>(6, 7);
  const LuDecomposition<double> lu(a);

  std::vector<double> b(6, 1.0), x;
  lu.solve_into(b, x);
  const double* data_before = x.data();
  b[3] = -2.0;
  lu.solve_into(b, x);
  EXPECT_EQ(x.data(), data_before);  // same allocation, refreshed contents
  EXPECT_EQ(x, lu.solve(b));

  Matrix<double> bm(6, 4, 0.5), xm;
  lu.solve_into(bm, xm);
  const double* mdata_before = xm.data().data();
  bm(2, 1) = 3.0;
  lu.solve_into(bm, xm);
  EXPECT_EQ(xm.data().data(), mdata_before);
  const Matrix<double> ref = lu.solve(bm);
  EXPECT_EQ(xm.data(), ref.data());
}

TEST(LuMultiRhs, FactorReusesDecompositionStorage) {
  LuDecomposition<double> lu;
  const Matrix<double> a1 = random_system<double>(5, 11);
  lu.factor(a1);
  EXPECT_EQ(lu.solve(std::vector<double>(5, 1.0)),
            LuDecomposition<double>(a1).solve(std::vector<double>(5, 1.0)));

  // Re-factoring a different same-size system fully replaces the old one.
  const Matrix<double> a2 = random_system<double>(5, 12);
  lu.factor(a2);
  EXPECT_EQ(lu.solve(std::vector<double>(5, 1.0)),
            LuDecomposition<double>(a2).solve(std::vector<double>(5, 1.0)));
}

TEST(LuMultiRhs, FactorSwapMatchesFactorAndRecyclesBuffers) {
  LuDecomposition<double> lu;
  const std::vector<double> b(7, 1.0);
  std::vector<const double*> buffers;
  Matrix<double> scratch;
  for (uint64_t seed : {21u, 22u, 23u}) {
    const Matrix<double> a = random_system<double>(7, seed);
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
  const Matrix<double> a = random_system<double>(4, 3);
  const LuDecomposition<double> lu(a);
  Matrix<double> b(3, 2, 1.0);
  Matrix<double> x;
  EXPECT_THROW(lu.solve_into(b, x), InvalidArgument);
  std::vector<double> bv(3, 1.0), xv;
  EXPECT_THROW(lu.solve_into(bv, xv), InvalidArgument);
}

}  // namespace
}  // namespace ota::linalg
