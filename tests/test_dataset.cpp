// Data-generation tests (paper Section IV-A procedure).
#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dataset_equality.hpp"

namespace ota::core {
namespace {

uint64_t ac_measurements() {
  const auto sites = stats::snapshot();
  const auto it = sites.find("spice.ac.measure");
  return it == sites.end() ? 0 : it->second.count;
}

// The region filter generate_dataset enforces, recomputed from a design's
// recorded devices and the topology's match groups.
bool passes_region_filter(const circuit::Topology& topo, const Design& d) {
  for (const auto& group : topo.match_groups) {
    for (const auto& dev : group.devices) {
      const device::SmallSignal& ss = d.devices.at(dev);
      if (ss.conduction != device::Conduction::Saturation ||
          ss.ic < group.min_ic || ss.ic > group.max_ic) {
        return false;
      }
    }
  }
  return true;
}

class DatasetTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();

  Dataset small_dataset(const std::string& name, int n = 40) {
    auto topo = circuit::make_topology(name, tech);
    DataGenOptions opt;
    opt.target_designs = n;
    opt.max_attempts = 20000;
    opt.seed = 7;
    return generate_dataset(topo, tech, SpecRange::for_topology(name), opt);
  }
};

TEST_F(DatasetTest, GeneratesRequestedCount) {
  const Dataset ds = small_dataset("5T-OTA");
  EXPECT_EQ(ds.designs.size(), 40u);
  EXPECT_GT(ds.attempts, 40);  // rejection sampling costs attempts
}

TEST_F(DatasetTest, AllDesignsMeetSpecWindow) {
  const Dataset ds = small_dataset("5T-OTA");
  const SpecRange range = SpecRange::for_topology("5T-OTA");
  for (const auto& d : ds.designs) {
    EXPECT_TRUE(range.contains(d.specs));
  }
}

TEST_F(DatasetTest, WidthsWithinSweepBounds) {
  const Dataset ds = small_dataset("CM-OTA", 25);
  for (const auto& d : ds.designs) {
    ASSERT_EQ(d.widths.size(), 5u);
    for (double w : d.widths) {
      EXPECT_GE(w, 0.7e-6 * 0.999);
      EXPECT_LE(w, 50e-6 * 1.001);
    }
  }
}

TEST_F(DatasetTest, DeviceParametersCaptured) {
  const Dataset ds = small_dataset("5T-OTA", 10);
  for (const auto& d : ds.designs) {
    EXPECT_EQ(d.devices.size(), 5u);  // all five transistors
    for (const auto& [name, ss] : d.devices) {
      EXPECT_GT(ss.gm, 0.0) << name;
      EXPECT_GT(ss.id, 0.0) << name;
    }
  }
}

TEST_F(DatasetTest, RegionFiltersAreActive) {
  // With region enforcement the DP must sit at low IC and the mirrors high.
  const Dataset ds = small_dataset("5T-OTA", 15);
  for (const auto& d : ds.designs) {
    EXPECT_LE(d.devices.at("M3").ic, 1.0 + 1e-9);   // DP toward weak inversion
    EXPECT_GE(d.devices.at("M1").ic, 3.0 - 1e-9);   // mirror toward strong
  }
}

TEST_F(DatasetTest, DeterministicForFixedSeed) {
  const Dataset a = small_dataset("5T-OTA", 10);
  const Dataset b = small_dataset("5T-OTA", 10);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].widths, b.designs[i].widths);
  }
}

TEST_F(DatasetTest, DifferentSeedsDiffer) {
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions a, b;
  a.target_designs = b.target_designs = 5;
  a.seed = 1;
  b.seed = 2;
  const auto da = generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), a);
  const auto db = generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), b);
  ASSERT_FALSE(da.designs.empty());
  ASSERT_FALSE(db.designs.empty());
  EXPECT_NE(da.designs[0].widths, db.designs[0].widths);
}

TEST_F(DatasetTest, MeasuresOnlyCandidatesThatPassTheRegionFilter) {
  const stats::ScopedStats scoped;
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions opt;
  opt.target_designs = std::numeric_limits<int>::max();  // fixed budget
  opt.max_attempts = 300;
  for (int workers : {1, 3}) {
    stats::reset();
    par::ThreadPool pool(workers);
    const Dataset ds = generate_dataset(
        topo, tech, SpecRange::for_topology("5T-OTA"), opt, pool);
    ASSERT_EQ(ds.attempts, 300);
    EXPECT_GT(ds.region_rejects, 0);
    EXPECT_EQ(ac_measurements(),
              static_cast<uint64_t>(ds.attempts - ds.dc_failures -
                                    ds.region_rejects))
        << workers << " workers";
  }

  stats::reset();
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  ASSERT_TRUE(spice::input_common_mode_range(topo, tech).has_value());
  EXPECT_EQ(ac_measurements(), 0u);  // the ICMR sweep solves DC only
  (void)spice::evaluate(topo, tech, {4e-6, 12e-6, 6e-6});
  EXPECT_EQ(ac_measurements(), 1u);
}

TEST_F(DatasetTest, FilteredRunEqualsUnfilteredRunFilteredAfterwards) {
  const struct {
    const char* name;
    int attempts;
  } cases[] = {{"5T-OTA", 300}, {"CM-OTA", 400}, {"2S-OTA", 300}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto topo = circuit::make_topology(c.name, tech);
    const SpecRange range = SpecRange::for_topology(c.name);
    DataGenOptions opt;
    opt.target_designs = std::numeric_limits<int>::max();  // fixed budget
    opt.max_attempts = c.attempts;
    opt.seed = 5;
    const Dataset filtered = generate_dataset(topo, tech, range, opt);

    DataGenOptions all = opt;
    all.enforce_regions = all.enforce_saturation = all.enforce_spec_range =
        false;
    const Dataset unfiltered = generate_dataset(topo, tech, range, all);
    EXPECT_EQ(unfiltered.region_rejects + unfiltered.spec_rejects, 0);

    Dataset expected;
    expected.topology = unfiltered.topology;
    expected.attempts = unfiltered.attempts;
    expected.dc_failures = unfiltered.dc_failures;
    for (const Design& d : unfiltered.designs) {
      if (!passes_region_filter(topo, d)) {
        ++expected.region_rejects;
      } else if (!range.contains(d.specs)) {
        ++expected.spec_rejects;
      } else {
        expected.designs.push_back(d);
      }
    }
    ASSERT_FALSE(expected.designs.empty());
    EXPECT_GT(expected.region_rejects, 0);
    expect_bit_identical(filtered, expected);
  }
}

TEST_F(DatasetTest, SpecRangeForUnknownTopologyThrows) {
  EXPECT_THROW(SpecRange::for_topology("9T-OTA"), InvalidArgument);
}

TEST_F(DatasetTest, TrainValSplitProportions) {
  const Dataset ds = small_dataset("5T-OTA", 40);
  const auto [train, val] = train_val_split(ds.designs, 0.2, 11);
  EXPECT_EQ(val.size(), 8u);
  EXPECT_EQ(train.size(), 32u);
  EXPECT_THROW(train_val_split(ds.designs, 1.5, 1), InvalidArgument);
}

TEST_F(DatasetTest, TrainValSplitIsAPartition) {
  const Dataset ds = small_dataset("5T-OTA", 30);
  const auto [train, val] = train_val_split(ds.designs, 0.3, 5);
  // Widths triples identify designs uniquely with overwhelming probability.
  std::set<std::vector<double>> seen;
  for (const auto& d : train) seen.insert(d.widths);
  for (const auto& d : val) {
    EXPECT_EQ(seen.count(d.widths), 0u);
  }
  EXPECT_EQ(train.size() + val.size(), ds.designs.size());
}

TEST_F(DatasetTest, TwoStageDatasetIsGeneratable) {
  const Dataset ds = small_dataset("2S-OTA", 15);
  EXPECT_EQ(ds.designs.size(), 15u);
  const SpecRange range = SpecRange::for_topology("2S-OTA");
  for (const auto& d : ds.designs) {
    EXPECT_TRUE(range.contains(d.specs));
    EXPECT_GE(d.specs.gain_db, 26.0);  // two-stage gain exceeds single-stage
  }
}

}  // namespace
}  // namespace ota::core
