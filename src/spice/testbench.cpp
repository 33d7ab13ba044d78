#include "spice/testbench.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace ota::spice {

namespace {

// Region and saturation checks against the topology's match-group
// requirements.  The tail devices have no region requirement but must still
// be saturated to act as current sources.
void check_regions(const circuit::Topology& topo, EvalResult& r) {
  r.regions_ok = true;
  r.saturation_ok = true;
  for (const auto& group : topo.match_groups) {
    for (const auto& dev : group.devices) {
      const auto& ss = r.devices.at(dev);
      if (ss.conduction != device::Conduction::Saturation) {
        r.saturation_ok = false;
      }
      if (ss.ic < group.min_ic || ss.ic > group.max_ic) {
        r.regions_ok = false;
      }
    }
  }
}

// Holds the input sources' DC levels and writes them back on destruction, so
// a sweep that throws midway leaves the topology as it found it.
class InputLevels {
 public:
  explicit InputLevels(circuit::Topology& topo) {
    for (const auto& src : topo.input_sources) {
      double& dc = topo.netlist.vsource(src).dc;
      saved_.emplace_back(&dc, dc);
    }
  }
  ~InputLevels() {
    for (const auto& [dc, level] : saved_) *dc = level;
  }
  InputLevels(const InputLevels&) = delete;
  InputLevels& operator=(const InputLevels&) = delete;

  void set_all(double v) {
    for (const auto& entry : saved_) *entry.first = v;
  }

 private:
  std::vector<std::pair<double*, double>> saved_;
};

}  // namespace

EvalResult operating_point(const circuit::Topology& topo,
                           const device::Technology& tech) {
  EvalResult r;
  r.dc = solve_dc(topo.netlist, tech);
  r.devices = small_signal_map(topo.netlist, tech, r.dc);
  check_regions(topo, r);
  return r;
}

void measure(const circuit::Topology& topo, const device::Technology& tech,
             EvalResult& r) {
  const AcAnalysis ac(topo.netlist, tech, r.dc);
  r.metrics = measure_ac(ac, topo.output_node);
}

EvalResult evaluate(circuit::Topology& topo, const device::Technology& tech,
                    const std::vector<double>& widths) {
  topo.apply_widths(widths);
  EvalResult r = operating_point(topo, tech);
  measure(topo, tech, r);
  return r;
}

std::optional<std::pair<double, double>> input_common_mode_range(
    circuit::Topology& topo, const device::Technology& tech, double v_step) {
  if (!(v_step > 0.0) || !std::isfinite(v_step)) {
    throw InvalidArgument(
        "input_common_mode_range: v_step must be finite and > 0");
  }
  InputLevels inputs(topo);

  double lo = tech.vdd, hi = 0.0;
  bool any = false;
  for (double vcm = 0.0; vcm <= tech.vdd + 1e-12; vcm += v_step) {
    inputs.set_all(vcm);
    bool ok = false;
    try {
      ok = operating_point(topo, tech).saturation_ok;
    } catch (const ConvergenceError&) {
      ok = false;
    }
    if (ok) {
      lo = std::min(lo, vcm);
      hi = std::max(hi, vcm);
      any = true;
    }
  }
  if (!any) return std::nullopt;
  return std::make_pair(lo, hi);
}

}  // namespace ota::spice
