#include "lut/device_lut.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ota::lut {

namespace {

// LutEntry and device-model fields in Quantity bit order.
constexpr double LutEntry::*kEntryField[kNumQuantities] = {
    &LutEntry::id, &LutEntry::gm, &LutEntry::gds, &LutEntry::cds, &LutEntry::cgs};
constexpr double device::SmallSignal::*kModelField[kNumQuantities] = {
    &device::SmallSignal::id, &device::SmallSignal::gm, &device::SmallSignal::gds,
    &device::SmallSignal::cds, &device::SmallSignal::cgs};

}  // namespace

DeviceLut::DeviceLut(const device::MosModel& model, const LutOptions& opt)
    : opt_(opt) {
  if (opt.v_step <= 0 || opt.v_max <= opt.v_min) {
    throw InvalidArgument("DeviceLut: bad grid options");
  }
  // Index-based generation avoids floating-point accumulation drifting the
  // last knot past v_max.
  const int count = static_cast<int>(std::round((opt.v_max - opt.v_min) / opt.v_step)) + 1;
  for (int i = 0; i < count; ++i) {
    vgs_.push_back(std::min(opt.v_min + i * opt.v_step, opt.v_max));
  }
  vds_ = vgs_;

  // Nested DC sweep at the reference width; store per-unit-width values.
  const size_t n = vgs_.size(), m = vds_.size();
  std::array<linalg::MatrixD, kNumQuantities> grid;
  for (auto& g : grid) g.reset(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const device::SmallSignal ss =
          model.evaluate(vgs_[i], vds_[j], opt.wref, opt.l);
      for (size_t q = 0; q < kNumQuantities; ++q) {
        grid[q](i, j) = ss.*kModelField[q] / opt.wref;
      }
    }
  }
  for (size_t q = 0; q < kNumQuantities; ++q) {
    s_[q] = linalg::BicubicSpline(vgs_, vds_, std::move(grid[q]));
  }
}

VdsSlice DeviceLut::slice(double vds, unsigned quantities) const {
  VdsSlice s;
  s.vds_ = vds;
  s.quantities_ = quantities & kAllQuantities;
  for (size_t q = 0; q < kNumQuantities; ++q) {
    if (s.quantities_ & (1u << q)) s.q_[q] = s_[q].slice(vds);
  }
  return s;
}

LutEntry VdsSlice::at(double vgs) const {
  LutEntry e;
  for (size_t q = 0; q < kNumQuantities; ++q) {
    if (quantities_ & (1u << q)) e.*kEntryField[q] = q_[q](vgs);
  }
  return e;
}

LutEntry DeviceLut::lookup(double vgs, double vds) const {
  return slice(vds).at(vgs);
}

LutEntry DeviceLut::grid_entry(size_t i_vgs, size_t i_vds) const {
  LutEntry e;
  for (size_t q = 0; q < kNumQuantities; ++q) {
    e.*kEntryField[q] = s_[q].samples()(i_vgs, i_vds);
  }
  return e;
}

std::pair<double, double> DeviceLut::gmid_range(double vds) const {
  return gmid_range(slice(vds, kGm | kId));
}

std::pair<double, double> DeviceLut::gmid_range(const VdsSlice& s) const {
  // gm/Id decreases with Vgs, so the extremes sit at the grid ends.  Guard
  // against the near-zero current at the lowest Vgs with a floor.
  const LutEntry lo = s.at(vgs_.front());
  const LutEntry hi = s.at(vgs_.back());
  const double max_gmid = lo.id > 0 ? lo.gm / lo.id : 0.0;
  const double min_gmid = hi.id > 0 ? hi.gm / hi.id : 0.0;
  return {min_gmid, max_gmid};
}

std::optional<double> DeviceLut::find_vgs_for_gmid(double gmid, double vds) const {
  if (!(gmid > 0)) return std::nullopt;  // also rejects NaN
  const VdsSlice s = slice(vds, kGm | kId);
  const auto [lo_gmid, hi_gmid] = gmid_range(s);
  if (gmid < lo_gmid * (1 - 1e-9) || gmid > hi_gmid * (1 + 1e-9)) {
    return std::nullopt;
  }
  // Bisection on the monotone map Vgs -> gm/Id.
  double lo = vgs_.front(), hi = vgs_.back();
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    const LutEntry e = s.at(mid);
    const double g = e.id > 0 ? e.gm / e.id : 1e30;
    if (g > gmid) {
      lo = mid;  // too weak: move toward stronger inversion
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-9) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace ota::lut
