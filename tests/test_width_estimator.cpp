// Algorithm 1 tests: exact recovery on self-consistent parameters, noise
// robustness, the scan fallback for partially observed devices, and bit
// identity of the whole Stage III path against the frozen per-point copy in
// per_point_stage3.hpp.
#include "lut/width_estimator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/copilot.hpp"
#include "per_point_stage3.hpp"

namespace ota::lut {
namespace {

class WidthEstimatorTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
  device::MosModel nmos{tech.nmos};
  DeviceLut lut{nmos};

  PredictedParams params_at(double vgs, double vds, double w) const {
    const auto ss = nmos.evaluate(vgs, vds, w, 180e-9);
    PredictedParams p;
    p.gm = ss.gm;
    p.gds = ss.gds;
    p.cds = ss.cds;
    p.cgs = ss.cgs;
    p.id = ss.id;
    return p;
  }
};

TEST_F(WidthEstimatorTest, RecoversWidthFromConsistentParameters) {
  for (double w : {0.7e-6, 2e-6, 8e-6, 25e-6, 50e-6}) {
    for (double vgs : {0.42, 0.55, 0.75}) {
      const auto est = estimate_width(lut, params_at(vgs, 0.61, w), tech.vdd);
      ASSERT_TRUE(est.has_value()) << "w=" << w << " vgs=" << vgs;
      EXPECT_NEAR(est->width, w, w * 0.02) << "w=" << w << " vgs=" << vgs;
      EXPECT_NEAR(est->vgs, vgs, 0.02);
    }
  }
}

TEST_F(WidthEstimatorTest, RecoversOperatingVds) {
  const double w = 5e-6, vgs = 0.55, vds = 0.84;
  const auto est = estimate_width(lut, params_at(vgs, vds, w), tech.vdd);
  ASSERT_TRUE(est.has_value());
  // The candidate widths only agree at the true Vds (Cds depends on it).
  EXPECT_NEAR(est->vds, vds, 0.05);
  EXPECT_LT(est->cost, w * 0.1);
}

TEST_F(WidthEstimatorTest, ToleratesNoisyPredictions) {
  // The transformer's predictions carry a few percent error; the consensus
  // across five ratios should keep the width within ~10%.
  Rng rng(123);
  const double w = 10e-6;
  for (int trial = 0; trial < 20; ++trial) {
    PredictedParams p = params_at(0.5, 0.6, w);
    auto jitter = [&rng](std::optional<double>& v) {
      *v *= 1.0 + rng.normal(0.0, 0.03);
    };
    jitter(p.gm);
    jitter(p.gds);
    jitter(p.cds);
    jitter(p.cgs);
    jitter(p.id);
    const auto est = estimate_width(lut, p, tech.vdd);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->width, w, w * 0.15) << "trial " << trial;
  }
}

TEST_F(WidthEstimatorTest, RequiresGmAndId) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  p.id.reset();
  EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument);
  PredictedParams q = params_at(0.5, 0.6, 5e-6);
  q.gm.reset();
  EXPECT_THROW((void)estimate_width(lut, q, tech.vdd), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, RejectsUnachievableGmId) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  // gm/Id of 60 /V is beyond the weak-inversion ceiling (~30 /V).
  p.gm = *p.id * 60.0;
  EXPECT_FALSE(estimate_width(lut, p, tech.vdd).has_value());
}

TEST_F(WidthEstimatorTest, ScanFallbackRecoversWidthWithoutId) {
  // A tail device's gm/Cgs do not appear in the differential DP-SFG; the
  // scan variant recovers W from {gds, Cds} (+gm here for stability).
  for (double w : {1e-6, 6e-6, 20e-6}) {
    PredictedParams p = params_at(0.5, 0.45, w);
    p.id.reset();
    const auto est = estimate_width_scan(lut, p);
    ASSERT_TRUE(est.has_value()) << w;
    EXPECT_NEAR(est->width, w, w * 0.05) << w;
  }
}

TEST_F(WidthEstimatorTest, ScanFallbackWithTwoParameters) {
  const double w = 8e-6;
  PredictedParams full = params_at(0.48, 0.52, w);
  PredictedParams p;
  p.gds = full.gds;
  p.cds = full.cds;
  const auto est = estimate_width_scan(lut, p);
  ASSERT_TRUE(est.has_value());
  // Two ratios constrain W more loosely; accept 25%.
  EXPECT_NEAR(est->width, w, w * 0.25);
}

TEST_F(WidthEstimatorTest, ScanNeedsAtLeastTwoParameters) {
  PredictedParams p;
  p.gm = 1e-3;
  EXPECT_THROW((void)estimate_width_scan(lut, p), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, NonPositiveInputsThrow) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  p.gm = -1e-3;
  EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, NanInputsThrow) {
  // NaN fails every comparison, so only a `!(x > 0)` guard rejects it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  p.gm = nan;
  EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument);
  PredictedParams q = params_at(0.5, 0.6, 5e-6);
  q.id = nan;
  EXPECT_THROW((void)estimate_width(lut, q, tech.vdd), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, DegenerateVdsScanThrows) {
  // One point would divide 0 by 0, and fewer scan nothing: neither can
  // yield a width.
  const PredictedParams p = params_at(0.5, 0.6, 5e-6);
  PredictedParams partial = p;
  partial.id.reset();
  for (int points : {-1, 0, 1}) {
    WidthEstimatorOptions opt;
    opt.vds_scan_points = points;
    EXPECT_THROW((void)estimate_width(lut, p, tech.vdd, opt), ota::InvalidArgument)
        << points;
    EXPECT_THROW((void)estimate_width_scan(lut, partial, opt), ota::InvalidArgument)
        << points;
  }
  WidthEstimatorOptions two;
  two.vds_scan_points = 2;
  EXPECT_TRUE(estimate_width(lut, p, tech.vdd, two).has_value());
}

class WidthRoundTrip : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WidthRoundTrip, AcrossBiasAndWidth) {
  const auto tech = device::Technology::default65nm();
  const device::MosModel nmos{tech.nmos};
  const DeviceLut lut{nmos};
  const auto [vgs, w] = GetParam();
  const auto ss = nmos.evaluate(vgs, 0.66, w, 180e-9);
  PredictedParams p;
  p.gm = ss.gm;
  p.gds = ss.gds;
  p.cds = ss.cds;
  p.cgs = ss.cgs;
  p.id = ss.id;
  const auto est = estimate_width(lut, p, tech.vdd);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->width, w, w * 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WidthRoundTrip,
    ::testing::Combine(::testing::Values(0.40, 0.50, 0.62, 0.80),
                       ::testing::Values(0.7e-6, 3e-6, 12e-6, 50e-6)));

// --- Bit identity against the frozen per-point path -----------------------

constexpr double LutEntry::*kFields[kNumQuantities] = {
    &LutEntry::id, &LutEntry::gm, &LutEntry::gds, &LutEntry::cds, &LutEntry::cgs};

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The fields of `mask` on which a and b differ in any bit.
unsigned differing(const LutEntry& a, const LutEntry& b, unsigned mask) {
  unsigned diff = 0;
  for (size_t q = 0; q < kNumQuantities; ++q) {
    if ((mask & (1u << q)) && !same_bits(a.*kFields[q], b.*kFields[q])) {
      diff |= 1u << q;
    }
  }
  return diff;
}

class StageThreeIdentity : public ::testing::TestWithParam<const char*> {
 protected:
  bool nmos() const { return std::string(GetParam()) == "Nmos"; }
  device::Technology tech = device::Technology::default65nm();
  device::MosModel model{nmos() ? tech.nmos : tech.pmos};
  DeviceLut lut{model};
  per_point::DeviceLut ref{model};
};

TEST_P(StageThreeIdentity, LookupMatchesPerPointEvaluator) {
  // Every knot pair (where the splines must reproduce the samples), then
  // 50,000 seeded points over a window 0.3 V wider than the LUT's on each
  // side, so the clamp is exercised on both axes.
  std::vector<std::pair<double, double>> points;
  for (double vgs : lut.vgs_axis()) {
    for (double vds : lut.vds_axis()) points.emplace_back(vgs, vds);
  }
  Rng rng(nmos() ? 1601 : 1602);
  int outside = 0;
  for (int k = 0; k < 50000; ++k) {
    const double vgs = rng.uniform(-0.3, 1.5), vds = rng.uniform(-0.3, 1.5);
    outside += (vgs < 0.0 || vgs > 1.2 || vds < 0.0 || vds > 1.2) ? 1 : 0;
    points.emplace_back(vgs, vds);
  }
  EXPECT_GT(outside, 10000);

  size_t mismatches = 0;
  for (const auto& [vgs, vds] : points) {
    if (differing(lut.lookup(vgs, vds), ref.lookup(vgs, vds), kAllQuantities)) {
      if (mismatches++ == 0) ADD_FAILURE() << "first mismatch at " << vgs << ", " << vds;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << points.size() << " points";
}

TEST_P(StageThreeIdentity, SliceMatchesOnEveryQuantitySubset) {
  Rng rng(nmos() ? 1603 : 1604);
  for (unsigned mask = 0; mask <= kAllQuantities; ++mask) {
    for (int k = 0; k < 6; ++k) {
      const double vds = rng.uniform(-0.3, 1.5);
      const VdsSlice s = lut.slice(vds, mask);
      EXPECT_EQ(s.vds(), vds);
      for (int t = 0; t < 12; ++t) {
        const double vgs = rng.uniform(-0.3, 1.5);
        const LutEntry got = s.at(vgs);
        EXPECT_EQ(differing(got, ref.lookup(vgs, vds), mask), 0u)
            << "mask " << mask << " at " << vgs << ", " << vds;
        EXPECT_EQ(differing(got, LutEntry{}, kAllQuantities & ~mask), 0u)
            << "unbuilt quantities must read 0 (mask " << mask << ")";
      }
    }
  }
}

TEST_P(StageThreeIdentity, GmIdInversionMatchesPerPointEvaluator) {
  Rng rng(nmos() ? 1605 : 1606);
  for (int k = 0; k < 40; ++k) {
    const double vds = rng.uniform(-0.3, 1.5), gmid = rng.uniform(0.5, 35.0);
    const auto [lo, hi] = lut.gmid_range(vds);
    const auto [ref_lo, ref_hi] = ref.gmid_range(vds);
    EXPECT_TRUE(same_bits(lo, ref_lo));
    EXPECT_TRUE(same_bits(hi, ref_hi));
    const auto got = lut.find_vgs_for_gmid(gmid, vds);
    const auto want = ref.find_vgs_for_gmid(gmid, vds);
    ASSERT_EQ(got.has_value(), want.has_value()) << gmid << " at " << vds;
    EXPECT_TRUE(!got || same_bits(*got, *want)) << gmid << " at " << vds;
  }
}

INSTANTIATE_TEST_SUITE_P(Polarities, StageThreeIdentity,
                         ::testing::Values("Nmos", "Pmos"),
                         [](const auto& info) { return std::string(info.param); });

// A Stage II prediction for every match group's representative: the model's
// own parameters at a seeded bias and width, then (when `perturb`) each
// value jittered by up to +-10% and each key dropped with probability 0.3.
// Biases reach down into weak inversion, where the spline's curvature term
// weighs most against the linear one, so a last-bit change in the LUT
// arithmetic reaches the widths there first.
std::map<std::string, double> seeded_params(const circuit::Topology& topo,
                                            const device::Technology& tech,
                                            Rng& rng, bool perturb) {
  std::map<std::string, double> params;
  for (const auto& group : topo.match_groups) {
    const std::string& rep = group.devices.front();
    const auto& mos = topo.netlist.mosfet(rep);
    const device::MosModel model(mos.type == device::MosType::Nmos ? tech.nmos
                                                                   : tech.pmos);
    const double vgs = rng.uniform(0.15, 1.0), vds = rng.uniform(0.05, 1.15);
    const double w = rng.log_uniform(0.7e-6, 50e-6);
    const device::SmallSignal ss = model.evaluate(vgs, vds, w, LutOptions{}.l);
    for (const auto& [key, v] : {std::pair{"gm", ss.gm}, {"gds", ss.gds},
                                 {"Cds", ss.cds}, {"Cgs", ss.cgs}, {"Id", ss.id}}) {
      const double jitter = perturb ? 1.0 + rng.uniform(-0.1, 0.1) : 1.0;
      if (perturb && rng.bernoulli(0.3)) continue;
      params[key + rep] = v * jitter;
    }
  }
  return params;
}

TEST(StageThreeIdentityTopologies, WidthsFromParamsMatchPerPointPath) {
  const auto tech = device::Technology::default65nm();
  const core::LutSet luts = core::LutSet::build(tech);
  const per_point::LutSet ref{per_point::DeviceLut(device::MosModel(tech.nmos)),
                              per_point::DeviceLut(device::MosModel(tech.pmos))};
  std::vector<per_point::DeviceStep> steps;
  Rng rng(1607);
  for (const char* name : {"5T-OTA", "CM-OTA", "2S-OTA"}) {
    const circuit::Topology topo = circuit::make_topology(name, tech);
    const std::vector<double> fallback = topo.widths();
    for (int trial = 0; trial < 6; ++trial) {
      const auto params = seeded_params(topo, tech, rng, trial % 3 != 0);
      const auto got = core::widths_from_params(topo, tech, luts, params, fallback);
      const auto want =
          per_point::widths_from_params(topo, tech, ref, params, fallback, steps);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
          << name << " trial " << trial;
    }
  }

  // Each estimate the reference made, field for field: the residual cost
  // sums every candidate width, so it exposes a one-ulp LUT difference that
  // a clamped or rounded-away width can hide.
  int algorithm1 = 0, scan = 0;
  for (const auto& step : steps) {
    const DeviceLut& l = step.nmos ? luts.nmos : luts.pmos;
    std::optional<WidthEstimate> got;
    try {
      got = step.algorithm1 ? estimate_width(l, step.params, tech.vdd)
                            : estimate_width_scan(l, step.params);
    } catch (const ota::Error&) {
    }
    ASSERT_EQ(got.has_value(), step.estimate.has_value());
    if (!got) continue;
    (step.algorithm1 ? algorithm1 : scan) += 1;
    EXPECT_TRUE(same_bits(got->width, step.estimate->width));
    EXPECT_TRUE(same_bits(got->vgs, step.estimate->vgs));
    EXPECT_TRUE(same_bits(got->vds, step.estimate->vds));
    EXPECT_TRUE(same_bits(got->cost, step.estimate->cost));
    EXPECT_EQ(got->iterations, step.estimate->iterations);
  }
  // Not vacuous: both Stage III paths produced estimates.
  EXPECT_GT(algorithm1, 0);
  EXPECT_GT(scan, 0);
}

}  // namespace
}  // namespace ota::lut
