// Precomputed per-unit-width device lookup table (paper Fig. 5, §III-D.1).
//
// The LUT is built by a nested DC sweep of (Vgs, Vds) for a reference-width
// transistor and stores the five outputs {Id, gm, gds, Cds, Cgs} *per unit
// width* — valid because all five scale linearly with W (a tested property of
// the device model, as of the paper's 65 nm devices).  Queries between grid
// points are answered with cubic-spline interpolation, allowing the coarse
// 60 mV grid of the paper to stay small without losing accuracy.
//
// Every query goes through a VdsSlice: the LUT at one fixed Vds, built for
// just the quantities the caller names.  Building it solves one spline along
// Vgs per quantity; each at(vgs) is then one segment search and one cubic
// per quantity.  Callers that hold Vds fixed — the gm/Id bisection, the Vds
// grid of the width estimator — build the slice once and read it many times.
// lookup(vgs, vds) is slice(vds).at(vgs).  The LUT itself is immutable and
// caches nothing, so one instance is safely shared by concurrent callers;
// slices live with the caller that built them.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "device/mos_model.hpp"
#include "linalg/spline.hpp"

namespace ota::lut {

/// The five LUT outputs at one bias point, per meter of width.
struct LutEntry {
  double id = 0.0;   ///< [A/m]
  double gm = 0.0;   ///< [S/m]
  double gds = 0.0;  ///< [S/m]
  double cds = 0.0;  ///< [F/m]
  double cgs = 0.0;  ///< [F/m]
};

/// Bit mask naming LutEntry fields: the quantities a VdsSlice builds.
enum Quantity : unsigned {
  kId = 1u << 0,
  kGm = 1u << 1,
  kGds = 1u << 2,
  kCds = 1u << 3,
  kCgs = 1u << 4,
  kAllQuantities = kId | kGm | kGds | kCds | kCgs,
};
inline constexpr size_t kNumQuantities = 5;

/// Grid and characterization settings; defaults follow the paper
/// (0-1.2 V in 60 mV steps, Wref = 700 nm, L = 180 nm).
struct LutOptions {
  double v_min = 0.0;
  double v_max = 1.2;
  double v_step = 0.06;
  double wref = 700e-9;
  double l = 180e-9;
};

/// The LUT at one fixed Vds, for a chosen set of quantities.  It refers to
/// its DeviceLut, which must outlive it.
class VdsSlice {
 public:
  /// Spline-interpolated per-unit-width outputs at `vgs`, clamped to the
  /// characterized window exactly as DeviceLut::lookup clamps, and bit-equal
  /// to lookup(vgs, vds()) on every quantity the slice was built for.  The
  /// other fields read 0.
  LutEntry at(double vgs) const;

  /// The Vds the slice was requested at (before clamping to the window).
  double vds() const { return vds_; }

 private:
  friend class DeviceLut;
  double vds_ = 0.0;
  unsigned quantities_ = 0;
  std::array<linalg::BicubicSpline::Slice, kNumQuantities> q_;
};

/// LUT for one device polarity at one channel length.  Bias values are
/// polarity-normalized (positive Vgs/Vds for both NMOS and PMOS).
class DeviceLut {
 public:
  DeviceLut(const device::MosModel& model, const LutOptions& opt = {});

  /// The LUT at `vds` for the quantities in the `quantities` mask.
  VdsSlice slice(double vds, unsigned quantities = kAllQuantities) const;

  /// Spline-interpolated per-unit-width outputs at (vgs, vds), clamped to the
  /// characterized window: slice(vds).at(vgs).
  LutEntry lookup(double vgs, double vds) const;

  /// gm/Id inversion at fixed vds: the Vgs at which gm/Id equals `gmid`
  /// [1/V], or nullopt when the target is outside the achievable range (or
  /// not a positive number).  gm/Id decreases monotonically with Vgs (weak ->
  /// strong inversion).  Reads one (gm, Id) slice.
  std::optional<double> find_vgs_for_gmid(double gmid, double vds) const;

  /// Achievable gm/Id range at a given vds: {min, max}.
  std::pair<double, double> gmid_range(double vds) const;

  const LutOptions& options() const { return opt_; }
  const std::vector<double>& vgs_axis() const { return vgs_; }
  const std::vector<double>& vds_axis() const { return vds_; }

  /// Raw (uninterpolated) grid entry, for tests and serialization.
  LutEntry grid_entry(size_t i_vgs, size_t i_vds) const;

 private:
  std::pair<double, double> gmid_range(const VdsSlice& s) const;

  LutOptions opt_;
  std::vector<double> vgs_;
  std::vector<double> vds_;
  // One interpolator per quantity, in Quantity bit order.
  std::array<linalg::BicubicSpline, kNumQuantities> s_;
};

}  // namespace ota::lut
