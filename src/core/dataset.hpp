// Data generation (paper Section IV-A).
//
// Reproduces the OCEAN-scripted procedure: sweep transistor widths over
// 0.7-50 um under the topology's matching constraints, solve each candidate's
// DC operating point with minispice, enforce the operating-region filters
// (differential pairs weak, mirrors strong inversion — expressed as
// inversion-coefficient bounds on each match group), measure the AC response
// of the candidates that pass, and keep designs whose {gain, BW, UGF} fall in
// the topology's Table I specification window.  Each retained design records
// the per-device small-signal parameters the transformer learns to predict.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/rng.hpp"
#include "par/thread_pool.hpp"
#include "spice/testbench.hpp"

namespace ota::core {

/// The paper's transistor-width sweep range (Section IV-A): every width that
/// dataset generation samples, Stage III estimates, the copilot refines or a
/// baseline optimizer proposes lies in [kWidthMin, kWidthMax].
inline constexpr double kWidthMin = 0.7e-6;  ///< [m]
inline constexpr double kWidthMax = 50e-6;   ///< [m]

/// The paper's specification triple.
struct Specs {
  double gain_db = 0.0;
  double bw_hz = 0.0;
  double ugf_hz = 0.0;
};

/// Table I-style specification window.
struct SpecRange {
  double gain_db_min, gain_db_max;
  double bw_hz_min, bw_hz_max;
  double ugf_hz_min, ugf_hz_max;

  bool contains(const Specs& s) const {
    return s.gain_db >= gain_db_min && s.gain_db <= gain_db_max &&
           s.bw_hz >= bw_hz_min && s.bw_hz <= bw_hz_max &&
           s.ugf_hz >= ugf_hz_min && s.ugf_hz <= ugf_hz_max;
  }

  /// The dataset window used for each topology (our technology's analogue of
  /// the paper's Table I rows).
  static SpecRange for_topology(const std::string& name);
};

/// One legal design: widths (one per match group), measured specs, and the
/// captured device parameters.
struct Design {
  std::vector<double> widths;
  Specs specs;
  std::map<std::string, device::SmallSignal> devices;
};

struct DataGenOptions {
  int target_designs = 1000;
  int max_attempts = 200000;
  uint64_t seed = 2024;
  bool enforce_regions = true;     ///< IC-window filters per match group
  bool enforce_saturation = true;  ///< all devices saturated
  bool enforce_spec_range = true;  ///< Table I window filter
};

struct Dataset {
  std::string topology;
  std::vector<Design> designs;
  int attempts = 0;        ///< candidates simulated (SPICE cost proxy)
  int dc_failures = 0;     ///< DC, or a measured candidate's AC, failed
  int region_rejects = 0;  ///< failed an enforced region filter; not measured
  int spec_rejects = 0;    ///< measured outside the enforced spec window
};

/// Generates a dataset for one topology.  Sampling is log-uniform in each
/// match-group width over [kWidthMin, kWidthMax] (the continuous analogue of
/// the paper's nested sweeps); the 2S-OTA's second stage uses a
/// current-balance heuristic for the CS width so the high-gain output node
/// biases into its linear window, as a designer's sweep script would.
///
/// Each attempt solves DC first.  A candidate whose DC converges but fails
/// an enforced region filter is a region reject, whatever its AC would have
/// done; only the others are measured, on the attempt's own thread (the
/// attempts themselves are what is sharded across the pool), and a singular
/// AC solve counts as a DC failure.
///
/// The rejection-sampling sweep is sharded over `pool`.  Attempt k draws
/// from counted stream Rng(opt.seed, k) and workers evaluate disjoint index
/// blocks against their own Topology copies, so the retained designs, the
/// attempt count, and every reject counter are bit-identical for any pool
/// width: the dataset is always "the first target_designs accepted attempts
/// in index order".
Dataset generate_dataset(circuit::Topology& topology,
                         const device::Technology& tech,
                         const SpecRange& range, const DataGenOptions& opt = {},
                         par::ThreadPool& pool = par::global_pool());

/// Splits a dataset into train/validation by shuffling with `seed`
/// (paper: 80:20).
std::pair<std::vector<Design>, std::vector<Design>> train_val_split(
    const std::vector<Design>& designs, double val_fraction, uint64_t seed);

}  // namespace ota::core
