// Topology-builder tests: structure, matching constraints, and bias health of
// the paper's three OTAs (Fig. 6) and the active inductor (Fig. 2).
#include "circuit/topologies.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "spice/testbench.hpp"

namespace ota::circuit {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(TopologyTest, FiveTransistorStructure) {
  const Topology t = make_5t_ota(tech);
  EXPECT_EQ(t.name, "5T-OTA");
  EXPECT_EQ(t.netlist.mosfets().size(), 5u);
  EXPECT_EQ(t.match_groups.size(), 3u);  // load, dp, tail
  EXPECT_EQ(t.device_roles.at("M3"), "DP");
  EXPECT_EQ(t.device_roles.at("M5"), "Tail MOS");
  EXPECT_EQ(t.output_node, "vout");
}

TEST_F(TopologyTest, CurrentMirrorStructure) {
  const Topology t = make_cm_ota(tech);
  EXPECT_EQ(t.netlist.mosfets().size(), 9u);  // paper: nine devices
  EXPECT_EQ(t.match_groups.size(), 5u);
}

TEST_F(TopologyTest, TwoStageStructure) {
  const Topology t = make_2s_ota(tech);
  EXPECT_EQ(t.netlist.mosfets().size(), 7u);  // paper: seven devices
  EXPECT_EQ(t.match_groups.size(), 5u);
  EXPECT_TRUE(t.netlist.has_component("CC"));  // Miller compensation
  EXPECT_EQ(t.device_roles.at("M7"), "2nd stage CS");
}

TEST_F(TopologyTest, ApplyAndReadWidths) {
  Topology t = make_5t_ota(tech);
  t.apply_widths({1e-6, 2e-6, 3e-6});
  const auto ws = t.widths();
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_DOUBLE_EQ(ws[0], 1e-6);
  EXPECT_DOUBLE_EQ(ws[1], 2e-6);
  EXPECT_DOUBLE_EQ(ws[2], 3e-6);
  // Matched devices share the width.
  EXPECT_DOUBLE_EQ(t.netlist.mosfet("M1").w, t.netlist.mosfet("M2").w);
  EXPECT_DOUBLE_EQ(t.netlist.mosfet("M3").w, t.netlist.mosfet("M4").w);
  EXPECT_THROW(t.apply_widths({1e-6}), InvalidArgument);
}

TEST_F(TopologyTest, MosfetNamesCoverAllDevices) {
  const Topology t = make_cm_ota(tech);
  const auto names = t.mosfet_names();
  EXPECT_EQ(names.size(), 9u);
}

TEST_F(TopologyTest, MakeTopologyByName) {
  EXPECT_EQ(make_topology("5T-OTA", tech).name, "5T-OTA");
  EXPECT_EQ(make_topology("CM-OTA", tech).name, "CM-OTA");
  EXPECT_EQ(make_topology("2S-OTA", tech).name, "2S-OTA");
  EXPECT_THROW(make_topology("7T-OTA", tech), InvalidArgument);
}

TEST_F(TopologyTest, DifferentialDriveIsAntisymmetric) {
  const Topology t = make_5t_ota(tech);
  double ac_sum = 0.0;
  for (const auto& src : t.input_sources) {
    for (const auto& v : t.netlist.vsources()) {
      if (v.name == src) ac_sum += v.ac;
    }
  }
  EXPECT_DOUBLE_EQ(ac_sum, 0.0);  // +0.5 / -0.5
}

TEST_F(TopologyTest, ActiveInductorBiasesAndFollows) {
  const ActiveInductor ai = make_active_inductor(tech);
  Netlist nl = ai.netlist;  // copy: solve mutates nothing but keep it local
  const auto sol = spice::solve_dc(nl, tech);
  // The follower output sits a Vgs below the (resistor-loaded) gate node.
  const double vg = sol.voltage(nl, "n2");
  const double vs = sol.voltage(nl, "n1");
  EXPECT_GT(vg, vs);
  EXPECT_GT(vs, 0.1);
  EXPECT_LT(vg - vs, 0.8);
}

TEST_F(TopologyTest, InputCommonModeRangeIsNonTrivial) {
  Topology t = make_5t_ota(tech);
  t.apply_widths({4e-6, 12e-6, 6e-6});
  const auto icmr = spice::input_common_mode_range(t, tech, 0.1);
  ASSERT_TRUE(icmr.has_value());
  EXPECT_LT(icmr->first, icmr->second);
  // The default VCM used by the builders must fall inside the ICMR.
  EXPECT_LE(icmr->first, 0.75);
  EXPECT_GE(icmr->second, 0.75);
}

TEST_F(TopologyTest, InputCommonModeRangeRefusesBadStepAndRestoresInputs) {
  Topology t = make_5t_ota(tech);
  const auto input_levels = [&t] {
    std::vector<double> v;
    for (const auto& src : t.input_sources) {
      v.push_back(t.netlist.vsource(src).dc);
    }
    return v;
  };
  const std::vector<double> nominal = input_levels();
  for (double step : {0.0, -0.05, std::nan(""),
                      std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)spice::input_common_mode_range(t, tech, step),
                 InvalidArgument)
        << step;
    EXPECT_EQ(input_levels(), nominal);
  }
  (void)spice::input_common_mode_range(t, tech, 0.25);
  EXPECT_EQ(input_levels(), nominal);

  // A sweep that throws midway (a match group naming no device fails the
  // region check at the first point) restores them too.
  t.match_groups[0].devices.push_back("M_missing");
  EXPECT_THROW((void)spice::input_common_mode_range(t, tech, 0.25),
               std::out_of_range);
  EXPECT_EQ(input_levels(), nominal);
}

}  // namespace
}  // namespace ota::circuit
