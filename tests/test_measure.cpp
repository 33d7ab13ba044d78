// Measurement-kit tests: gain / BW / UGF on circuits with closed-form answers.
#include "spice/measure.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "circuit/topologies.hpp"
#include "spice/testbench.hpp"

namespace ota::spice {
namespace {

using circuit::Netlist;
using device::MosType;

class MeasureTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(MeasureTest, SinglePoleAmplifierMetrics) {
  // Ideal single-pole amplifier built from a VCCS-like CS stage: gain A0,
  // pole at 1/(2 pi R C), UGF at A0 * BW (single-pole identity).
  Netlist nl;
  nl.add_vsource("VDD", "vdd", "0", 1.2);
  nl.add_vsource("VIN", "g", "0", 0.45, 1.0);
  nl.add_resistor("RL", "vdd", "d", 80e3);
  nl.add_capacitor("CL", "d", "0", 1e-12);
  nl.add_mosfet("M1", MosType::Nmos, "d", "g", "0", 1e-6, 180e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const AcMetrics m = measure_ac(ac, "d");

  const auto& ss = ac.devices().at("M1");
  ASSERT_EQ(ss.conduction, device::Conduction::Saturation);
  const double rout = 1.0 / (ss.gds + 1.0 / 80e3);
  const double a0 = ss.gm * rout;
  const double ctot = 1e-12 + ss.cds;
  const double pole = 1.0 / (2.0 * std::numbers::pi * rout * ctot);

  EXPECT_NEAR(m.gain_linear, a0, a0 * 1e-3);
  EXPECT_NEAR(m.bw_3db_hz, pole, pole * 0.02);
  EXPECT_NEAR(m.ugf_hz, a0 * pole, a0 * pole * 0.05);  // gain-bandwidth product
  // Dominantly single-pole: phase margin near 90 degrees (the Cgs
  // feedforward zero shifts it several degrees at this low gain).
  EXPECT_NEAR(m.phase_margin_deg, 90.0, 12.0);
}

TEST_F(MeasureTest, PassiveAttenuatorHasNoUgf) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "out", 9e3);
  nl.add_resistor("R2", "out", "0", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-12);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const AcMetrics m = measure_ac(ac, "out");
  EXPECT_NEAR(m.gain_linear, 0.1, 1e-6);
  EXPECT_DOUBLE_EQ(m.ugf_hz, 0.0);  // never crosses unity
  EXPECT_GT(m.bw_3db_hz, 0.0);
}

TEST_F(MeasureTest, FindFallingCrossingBracketsCorrectly) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "out", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const AcMetrics m = measure_ac(ac, "out");
  // measure_ac's crossing search brackets the -3 dB crossing of an RC
  // low-pass at 1/(2 pi RC).
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e-6);
  EXPECT_NEAR(m.bw_3db_hz, fc, fc * 1e-3);
  // Unity lies above the DC magnitude, so it has no falling crossing.
  EXPECT_EQ(m.ugf_hz, 0.0);
}

TEST_F(MeasureTest, EvaluateFiveTransistorOtaEndToEnd) {
  auto topo = circuit::make_5t_ota(tech);
  const EvalResult r = evaluate(topo, tech, {4e-6, 12e-6, 6e-6});
  EXPECT_GT(r.metrics.gain_db, 10.0);
  EXPECT_LT(r.metrics.gain_db, 30.0);
  EXPECT_GT(r.metrics.bw_3db_hz, 1e6);
  EXPECT_GT(r.metrics.ugf_hz, r.metrics.bw_3db_hz);  // gain > 1 implies this
  EXPECT_EQ(r.devices.size(), 5u);
}

TEST_F(MeasureTest, UgfScalesWithTailCurrent) {
  // Wider tail -> more current -> higher gm -> higher UGF (same CL).
  auto topo = circuit::make_5t_ota(tech);
  const EvalResult small = evaluate(topo, tech, {4e-6, 12e-6, 3e-6});
  const EvalResult large = evaluate(topo, tech, {4e-6, 12e-6, 12e-6});
  EXPECT_GT(large.metrics.ugf_hz, small.metrics.ugf_hz * 1.5);
}

TEST_F(MeasureTest, TwoStageOtaHasHigherGainThanFirstStageAlone) {
  auto topo2 = circuit::make_2s_ota(tech);
  const EvalResult two = evaluate(topo2, tech, {4e-6, 12e-6, 6e-6, 12e-6, 3e-6});
  auto topo1 = circuit::make_5t_ota(tech);
  const EvalResult one = evaluate(topo1, tech, {4e-6, 12e-6, 6e-6});
  EXPECT_GT(two.metrics.gain_db, one.metrics.gain_db + 8.0);
  // The Miller-compensated two-stage has a much lower 3 dB bandwidth.
  EXPECT_LT(two.metrics.bw_3db_hz, one.metrics.bw_3db_hz);
}

}  // namespace
}  // namespace ota::spice
