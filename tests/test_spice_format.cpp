// SPICE-deck import/export tests, including round trips of the paper's
// topologies and behavioural equivalence through the simulator.
#include "circuit/spice_format.hpp"

#include <gtest/gtest.h>

#include "circuit/topologies.hpp"
#include "common/error.hpp"
#include "spice/testbench.hpp"

namespace ota::circuit {
namespace {

TEST(SpiceFormat, ParsesBasicDeck) {
  const Netlist nl = parse_spice(
      "* a comment\n"
      "M1 d g 0 nmos W=0.7u L=180n\n"
      "R1 d vdd 10k\n"
      "C1 d 0 500f\n"
      "VDD vdd 0 1.2\n"
      "VIN g 0 0.5 AC 1\n"
      "IB d 0 1u\n"
      ".end\n");
  EXPECT_EQ(nl.mosfets().size(), 1u);
  EXPECT_EQ(nl.resistors().size(), 1u);
  EXPECT_EQ(nl.capacitors().size(), 1u);
  EXPECT_EQ(nl.vsources().size(), 2u);
  EXPECT_EQ(nl.isources().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.mosfet("M1").w, 0.7e-6);
  EXPECT_DOUBLE_EQ(nl.mosfet("M1").l, 180e-9);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].resistance, 10e3);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].capacitance, 500e-15);
  EXPECT_DOUBLE_EQ(nl.vsources()[1].ac, 1.0);
  EXPECT_EQ(nl.vsources()[1].name, "VIN");
}

TEST(SpiceFormat, BulkTerminalAcceptedAndIgnored) {
  const Netlist nl = parse_spice("M1 d g s 0 pmos W=1u L=0.18u\n");
  EXPECT_EQ(nl.mosfets()[0].type, device::MosType::Pmos);
  EXPECT_EQ(nl.node_name(nl.mosfets()[0].source), "s");
}

TEST(SpiceFormat, CaseInsensitiveKeywords) {
  const Netlist nl = parse_spice(
      "m1 d g 0 NMOS w=1u l=180n\n"
      "vin g 0 0.5 ac 0.5\n");
  EXPECT_EQ(nl.mosfets().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.vsources()[0].ac, 0.5);
}

TEST(SpiceFormat, DirectivesAndBlankLinesSkipped) {
  const Netlist nl = parse_spice(
      "\n.option whatever\n* note\nR1 a 0 1k\n.end\nR2 ignored 0 1k\n");
  EXPECT_EQ(nl.resistors().size(), 1u);  // .end stops parsing
}

TEST(SpiceFormat, ErrorsCarryLineNumbers) {
  try {
    parse_spice("R1 a 0 1k\nM2 d g 0 nmos W=zzz L=1u\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SpiceFormat, RejectsMalformedCards) {
  EXPECT_THROW(parse_spice("Q1 a b c\n"), InvalidArgument);
  EXPECT_THROW(parse_spice("M1 d g 0 bjt W=1u L=1u\n"), InvalidArgument);
  EXPECT_THROW(parse_spice("R1 a 0\n"), InvalidArgument);
  EXPECT_THROW(parse_spice("V1 a 0 1.0 DC 2\n"), InvalidArgument);
  EXPECT_THROW(parse_spice("M1 d g 0 nmos L=1u W=1u\n"), InvalidArgument);
}

TEST(SpiceFormat, RejectsValuesThatOverflowToInfinity) {
  try {
    (void)parse_spice("M1 d g 0 nmos W=1e999 L=180n\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bad w value"), std::string::npos)
        << e.what();
  }
}

class SpiceRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SpiceRoundTrip, TopologyRoundTripsThroughDeck) {
  const auto tech = device::Technology::default65nm();
  Topology topo = make_topology(GetParam(), tech);
  const std::string deck = to_spice(topo.netlist, topo.name);
  const Netlist back = parse_spice(deck);

  ASSERT_EQ(back.mosfets().size(), topo.netlist.mosfets().size());
  ASSERT_EQ(back.vsources().size(), topo.netlist.vsources().size());
  ASSERT_EQ(back.capacitors().size(), topo.netlist.capacitors().size());

  // Behavioural equivalence: identical AC metrics from both netlists.
  const auto dc1 = spice::solve_dc(topo.netlist, tech);
  const auto dc2 = spice::solve_dc(back, tech);
  const spice::AcAnalysis ac1(topo.netlist, tech, dc1);
  const spice::AcAnalysis ac2(back, tech, dc2);
  const auto m1 = spice::measure_ac(ac1, topo.output_node);
  const auto m2 = spice::measure_ac(ac2, topo.output_node);
  EXPECT_NEAR(m1.gain_db, m2.gain_db, 1e-3);
  EXPECT_NEAR(m1.ugf_hz, m2.ugf_hz, m1.ugf_hz * 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Topologies, SpiceRoundTrip,
                         ::testing::Values("5T-OTA", "CM-OTA", "2S-OTA"));

TEST(SpiceFormat, DeckRoundTripIsStable) {
  // to_spice(parse_spice(deck)) is a fixed point after one round.
  const auto tech = device::Technology::default65nm();
  const Topology topo = make_5t_ota(tech);
  const std::string once = to_spice(topo.netlist);
  const std::string twice = to_spice(parse_spice(once));
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace ota::circuit
