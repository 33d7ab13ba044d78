// A frozen, self-contained copy of the per-point Stage III path the library
// used before slice evaluation: every LUT query rebuilds the interpolating
// column spline (a fresh CubicSpline1D with its own Thomas solve) at the
// query point, for all five quantities.  test_width_estimator compares the
// library against it bit for bit.  It calls none of the code it checks — no
// linalg splines, no DeviceLut, no width estimator — so a change to any of
// those cannot leak into the reference.  Do not "fix" or speed up this file:
// its value is that it stays the old arithmetic, verbatim.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/error.hpp"
#include "device/mos_model.hpp"
#include "linalg/matrix.hpp"
#include "lut/device_lut.hpp"       // LutEntry, LutOptions (plain data)
#include "lut/width_estimator.hpp"  // PredictedParams, WidthEstimate (plain data)

namespace ota::per_point {

class CubicSpline1D {
 public:
  CubicSpline1D(std::vector<double> x, std::vector<double> y)
      : x_(std::move(x)), y_(std::move(y)) {
    const size_t n = x_.size();
    if (n < 2) throw InvalidArgument("CubicSpline1D: need at least two points");
    if (y_.size() != n) throw InvalidArgument("CubicSpline1D: x/y size mismatch");
    for (size_t i = 1; i < n; ++i) {
      if (!(x_[i] > x_[i - 1])) {
        throw InvalidArgument("CubicSpline1D: x must be strictly increasing");
      }
    }

    // Solve the tridiagonal system for natural boundary conditions (m_0 =
    // m_{n-1} = 0) with the Thomas algorithm.
    m_.assign(n, 0.0);
    if (n == 2) return;  // linear interpolation; second derivatives stay zero

    std::vector<double> h(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) h[i] = x_[i + 1] - x_[i];

    std::vector<double> diag(n - 2), rhs(n - 2), upper(n - 2);
    for (size_t i = 1; i + 1 < n; ++i) {
      diag[i - 1] = 2.0 * (h[i - 1] + h[i]);
      rhs[i - 1] = 6.0 * ((y_[i + 1] - y_[i]) / h[i] - (y_[i] - y_[i - 1]) / h[i - 1]);
      upper[i - 1] = h[i];
    }
    // Forward sweep.
    for (size_t i = 1; i < diag.size(); ++i) {
      const double w = h[i] / diag[i - 1];
      diag[i] -= w * upper[i - 1];
      rhs[i] -= w * rhs[i - 1];
    }
    // Back substitution into the interior second derivatives.
    for (size_t ii = diag.size(); ii-- > 0;) {
      double acc = rhs[ii];
      if (ii + 1 < diag.size()) acc -= upper[ii] * m_[ii + 2];
      m_[ii + 1] = acc / diag[ii];
    }
  }

  double operator()(double x) const {
    const size_t i = segment(x);
    const double h = x_[i + 1] - x_[i];
    const double a = (x_[i + 1] - x) / h;
    const double b = (x - x_[i]) / h;
    return a * y_[i] + b * y_[i + 1] +
           ((a * a * a - a) * m_[i] + (b * b * b - b) * m_[i + 1]) * h * h / 6.0;
  }

 private:
  size_t segment(double x) const {
    auto it = std::upper_bound(x_.begin(), x_.end(), x);
    if (it == x_.begin()) return 0;
    size_t idx = static_cast<size_t>(it - x_.begin()) - 1;
    return std::min(idx, x_.size() - 2);
  }

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> m_;
};

class BicubicSpline {
 public:
  BicubicSpline(std::vector<double> x, std::vector<double> y,
                const linalg::MatrixD& z)
      : x_(std::move(x)), y_(std::move(y)) {
    row_splines_.reserve(x_.size());
    for (size_t i = 0; i < x_.size(); ++i) {
      std::vector<double> row(y_.size());
      for (size_t j = 0; j < y_.size(); ++j) row[j] = z(i, j);
      row_splines_.emplace_back(y_, std::move(row));
    }
  }

  double operator()(double x, double y) const {
    x = std::clamp(x, x_.front(), x_.back());
    y = std::clamp(y, y_.front(), y_.back());
    std::vector<double> column(x_.size());
    for (size_t i = 0; i < x_.size(); ++i) column[i] = row_splines_[i](y);
    return CubicSpline1D(x_, std::move(column))(x);
  }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<CubicSpline1D> row_splines_;
};

class DeviceLut {
 public:
  DeviceLut(const device::MosModel& model, const lut::LutOptions& opt = {}) {
    const int count =
        static_cast<int>(std::round((opt.v_max - opt.v_min) / opt.v_step)) + 1;
    for (int i = 0; i < count; ++i) {
      vgs_.push_back(std::min(opt.v_min + i * opt.v_step, opt.v_max));
    }
    vds_ = vgs_;
    const size_t n = vgs_.size(), m = vds_.size();
    linalg::MatrixD g_id(n, m), g_gm(n, m), g_gds(n, m), g_cds(n, m), g_cgs(n, m);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const device::SmallSignal ss =
            model.evaluate(vgs_[i], vds_[j], opt.wref, opt.l);
        g_id(i, j) = ss.id / opt.wref;
        g_gm(i, j) = ss.gm / opt.wref;
        g_gds(i, j) = ss.gds / opt.wref;
        g_cds(i, j) = ss.cds / opt.wref;
        g_cgs(i, j) = ss.cgs / opt.wref;
      }
    }
    s_.emplace_back(vgs_, vds_, g_id);
    s_.emplace_back(vgs_, vds_, g_gm);
    s_.emplace_back(vgs_, vds_, g_gds);
    s_.emplace_back(vgs_, vds_, g_cds);
    s_.emplace_back(vgs_, vds_, g_cgs);
  }

  lut::LutEntry lookup(double vgs, double vds) const {
    lut::LutEntry e;
    e.id = s_[0](vgs, vds);
    e.gm = s_[1](vgs, vds);
    e.gds = s_[2](vgs, vds);
    e.cds = s_[3](vgs, vds);
    e.cgs = s_[4](vgs, vds);
    return e;
  }

  std::pair<double, double> gmid_range(double vds) const {
    const lut::LutEntry lo = lookup(vgs_.front(), vds);
    const lut::LutEntry hi = lookup(vgs_.back(), vds);
    const double max_gmid = lo.id > 0 ? lo.gm / lo.id : 0.0;
    const double min_gmid = hi.id > 0 ? hi.gm / hi.id : 0.0;
    return {min_gmid, max_gmid};
  }

  std::optional<double> find_vgs_for_gmid(double gmid, double vds) const {
    if (gmid <= 0) return std::nullopt;
    const auto [lo_gmid, hi_gmid] = gmid_range(vds);
    if (gmid < lo_gmid * (1 - 1e-9) || gmid > hi_gmid * (1 + 1e-9)) {
      return std::nullopt;
    }
    double lo = vgs_.front(), hi = vgs_.back();
    for (int it = 0; it < 100; ++it) {
      const double mid = 0.5 * (lo + hi);
      const lut::LutEntry e = lookup(mid, vds);
      const double g = e.id > 0 ? e.gm / e.id : 1e30;
      if (g > gmid) {
        lo = mid;
      } else {
        hi = mid;
      }
      if (hi - lo < 1e-9) break;
    }
    return 0.5 * (lo + hi);
  }

  const std::vector<double>& vgs_axis() const { return vgs_; }
  const std::vector<double>& vds_axis() const { return vds_; }

 private:
  std::vector<double> vgs_;
  std::vector<double> vds_;
  std::vector<BicubicSpline> s_;  // Id, gm, gds, Cds, Cgs
};

namespace detail {

inline std::vector<double> candidate_widths(const lut::PredictedParams& p,
                                            const lut::LutEntry& e) {
  std::vector<double> ws;
  auto push = [&ws](const std::optional<double>& num, double den) {
    if (num && den > 0.0) ws.push_back(*num / den);
  };
  push(p.gm, e.gm);
  push(p.gds, e.gds);
  push(p.cds, e.cds);
  push(p.cgs, e.cgs);
  push(p.id, e.id);
  return ws;
}

inline double pairwise_cost(const std::vector<double>& ws) {
  double c = 0.0;
  for (size_t n = 0; n < ws.size(); ++n) {
    for (size_t m = n + 1; m < ws.size(); ++m) {
      c += std::fabs(ws[n] - ws[m]);
    }
  }
  return c;
}

struct VdsScanResult {
  double vds = 0.0;
  double cost = 0.0;
  double width = 0.0;
};

inline VdsScanResult scan_vds(const DeviceLut& lut, const lut::PredictedParams& p,
                              double vgs, int points) {
  const auto& axis = lut.vds_axis();
  VdsScanResult best{axis.front(), 1e300, 0.0};
  const double lo = axis.front(), hi = axis.back();
  for (int i = 0; i < points; ++i) {
    const double vds = lo + (hi - lo) * i / (points - 1);
    const lut::LutEntry e = lut.lookup(vgs, vds);
    const auto ws = candidate_widths(p, e);
    if (ws.size() < 2) continue;
    const double c = pairwise_cost(ws);
    if (c < best.cost) {
      best = VdsScanResult{vds, c, ws.front()};
    }
  }
  return best;
}

}  // namespace detail

inline std::optional<lut::WidthEstimate> estimate_width(
    const DeviceLut& lut, const lut::PredictedParams& p, double vdd,
    const lut::WidthEstimatorOptions& opt = {}) {
  if (!p.gm || !p.id) {
    throw InvalidArgument("estimate_width: gm and id are required for gm/Id");
  }
  if (*p.id <= 0.0 || *p.gm <= 0.0) {
    throw InvalidArgument("estimate_width: gm and id must be positive");
  }
  const double gmid = *p.gm / *p.id;

  double vds_curr = vdd / 2.0;
  double mincost_prev = 1e300;
  lut::WidthEstimate result;

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    const double vds_prev = vds_curr;
    const auto vgs = lut.find_vgs_for_gmid(gmid, vds_curr);
    if (!vgs) return std::nullopt;
    const detail::VdsScanResult scan =
        detail::scan_vds(lut, p, *vgs, opt.vds_scan_points);
    result.vgs = *vgs;
    result.vds = scan.vds;
    result.cost = scan.cost;
    const lut::LutEntry e = lut.lookup(*vgs, scan.vds);
    result.width = e.gm > 0 ? *p.gm / e.gm : scan.width;

    const double delta = mincost_prev - scan.cost;
    if (std::fabs(delta) < opt.epsilon) break;
    mincost_prev = scan.cost;
    vds_curr = vds_curr + (delta > 0 ? 1.0 : -1.0) * opt.alpha * vds_prev;
    vds_curr = std::clamp(vds_curr, lut.vds_axis().front(), lut.vds_axis().back());
  }
  return result;
}

inline std::optional<lut::WidthEstimate> estimate_width_scan(
    const DeviceLut& lut, const lut::PredictedParams& p,
    const lut::WidthEstimatorOptions& opt = {}) {
  int available = 0;
  for (const auto& q : {p.gm, p.gds, p.cds, p.cgs, p.id}) {
    if (q) ++available;
  }
  if (available < 2) {
    throw InvalidArgument("estimate_width_scan: need at least two parameters");
  }

  lut::WidthEstimate best;
  best.cost = 1e300;
  bool found = false;
  const auto& vgs_axis = lut.vgs_axis();
  for (double vgs : vgs_axis) {
    const detail::VdsScanResult scan =
        detail::scan_vds(lut, p, vgs, opt.vds_scan_points);
    if (scan.cost < best.cost) {
      const lut::LutEntry e = lut.lookup(vgs, scan.vds);
      const auto ws = detail::candidate_widths(p, e);
      if (ws.empty()) continue;
      best.vgs = vgs;
      best.vds = scan.vds;
      best.cost = scan.cost;
      best.width = ws.front();
      found = true;
    }
  }
  if (!found) return std::nullopt;

  const double step = (vgs_axis.back() - vgs_axis.front()) /
                      static_cast<double>(vgs_axis.size() - 1);
  for (double vgs = std::max(vgs_axis.front(), best.vgs - step);
       vgs <= std::min(vgs_axis.back(), best.vgs + step); vgs += step / 8.0) {
    const detail::VdsScanResult scan =
        detail::scan_vds(lut, p, vgs, opt.vds_scan_points);
    if (scan.cost < best.cost) {
      const lut::LutEntry e = lut.lookup(vgs, scan.vds);
      const auto ws = detail::candidate_widths(p, e);
      if (ws.empty()) continue;
      best.vgs = vgs;
      best.vds = scan.vds;
      best.cost = scan.cost;
      best.width = ws.front();
    }
  }
  best.iterations = 1;
  return best;
}

/// The NMOS/PMOS pair, as core::LutSet holds it.
struct LutSet {
  DeviceLut nmos;
  DeviceLut pmos;
};

/// One device's step through the reference Stage III: which estimator ran,
/// on what, and what it returned (nullopt also when it threw).
struct DeviceStep {
  bool nmos = true;
  bool algorithm1 = true;  ///< false: the scan fallback
  lut::PredictedParams params;
  std::optional<lut::WidthEstimate> estimate;
};

inline std::vector<double> widths_from_params(
    const circuit::Topology& topo, const device::Technology& tech,
    const LutSet& luts, const std::map<std::string, double>& params,
    const std::vector<double>& fallback_widths, std::vector<DeviceStep>& steps,
    double w_min = 0.7e-6, double w_max = 50e-6) {
  if (fallback_widths.size() != topo.match_groups.size()) {
    throw InvalidArgument("widths_from_params: fallback width count mismatch");
  }
  std::vector<double> widths = fallback_widths;
  for (size_t g = 0; g < topo.match_groups.size(); ++g) {
    const std::string& rep = topo.match_groups[g].devices.front();
    const auto& mos = topo.netlist.mosfet(rep);
    const DeviceLut& lut =
        mos.type == device::MosType::Nmos ? luts.nmos : luts.pmos;

    lut::PredictedParams p;
    auto take = [&params](const std::string& key) -> std::optional<double> {
      auto it = params.find(key);
      if (it == params.end() || it->second <= 0.0) return std::nullopt;
      return it->second;
    };
    p.gm = take("gm" + rep);
    p.gds = take("gds" + rep);
    p.cds = take("Cds" + rep);
    p.cgs = take("Cgs" + rep);
    p.id = take("Id" + rep);

    std::optional<lut::WidthEstimate> est;
    const bool algorithm1 = p.gm && p.id;
    const int available = (p.gm ? 1 : 0) + (p.gds ? 1 : 0) + (p.cds ? 1 : 0) +
                          (p.cgs ? 1 : 0) + (p.id ? 1 : 0);
    try {
      if (algorithm1) {
        est = estimate_width(lut, p, tech.vdd);  // Algorithm 1
      } else if (available >= 2) {
        est = estimate_width_scan(lut, p);
      }
    } catch (const Error&) {
      est.reset();
    }
    if (algorithm1 || available >= 2) {
      steps.push_back({mos.type == device::MosType::Nmos, algorithm1, p, est});
    }
    if (est && est->width > 0.0) {
      widths[g] = std::clamp(est->width, w_min, w_max);
    }
  }
  return widths;
}

}  // namespace ota::per_point
