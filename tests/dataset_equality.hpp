// Field-by-field dataset comparison shared by the dataset and determinism
// suites: every counter, then every design in order with its widths, specs
// and device parameters compared exactly.
#pragma once

#include <gtest/gtest.h>

#include "core/dataset.hpp"

namespace ota::core {

inline void expect_bit_identical(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.dc_failures, b.dc_failures);
  EXPECT_EQ(a.region_rejects, b.region_rejects);
  EXPECT_EQ(a.spec_rejects, b.spec_rejects);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (size_t i = 0; i < a.designs.size(); ++i) {
    const Design& da = a.designs[i];
    const Design& db = b.designs[i];
    EXPECT_EQ(da.widths, db.widths) << "design " << i;
    EXPECT_EQ(da.specs.gain_db, db.specs.gain_db) << "design " << i;
    EXPECT_EQ(da.specs.bw_hz, db.specs.bw_hz) << "design " << i;
    EXPECT_EQ(da.specs.ugf_hz, db.specs.ugf_hz) << "design " << i;
    ASSERT_EQ(da.devices.size(), db.devices.size()) << "design " << i;
    for (const auto& [name, ss] : da.devices) {
      const auto it = db.devices.find(name);
      ASSERT_NE(it, db.devices.end()) << name;
      EXPECT_EQ(ss.id, it->second.id) << name;
      EXPECT_EQ(ss.gm, it->second.gm) << name;
      EXPECT_EQ(ss.gds, it->second.gds) << name;
      EXPECT_EQ(ss.cgs, it->second.cgs) << name;
      EXPECT_EQ(ss.cds, it->second.cds) << name;
      EXPECT_EQ(ss.ic, it->second.ic) << name;
    }
  }
}

}  // namespace ota::core
