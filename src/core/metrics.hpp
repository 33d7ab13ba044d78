// Evaluation harness shared by the Table II-VIII benchmarks.
//
// The validation sweeps (correlation_table, scatter_series) predict through
// core::Predictor::predict alone: one call per design, the designs spread
// across par::global_pool(), each result in its design's slot.  A sweep's
// output is therefore the serial loop's for any pool width, and the
// predictor it is given must be safe to call from many threads.
#pragma once

#include <string>
#include <vector>

#include "core/copilot.hpp"
#include "core/sequence_builder.hpp"
#include "core/sizing_model.hpp"
#include "par/thread_pool.hpp"

namespace ota::core {

/// One row of a Table II/IV/VI-style correlation report: Pearson r between
/// the transformer-predicted and simulation-measured device parameters, per
/// matched device group, across a set of validation designs.
struct CorrelationRow {
  std::string devices;  ///< "M1/M2" or "M5"
  std::string role;     ///< Table II/IV/VI role label
  double r_gm = 0.0;
  double r_gds = 0.0;
  double r_cds = 0.0;
  double r_cgs = 0.0;
  int samples = 0;      ///< designs with a usable prediction for this group
};

/// Predicts parameters for each validation design's specs and correlates
/// them against the design's measured parameters.  Throws InvalidArgument
/// when fewer than 3 designs are available.
std::vector<CorrelationRow> correlation_table(
    const circuit::Topology& topology, const SequenceBuilder& builder,
    const Predictor& model, const std::vector<Design>& validation,
    int max_designs = 100);

/// Paired predicted/measured values of one parameter for one device across
/// validation designs — the scatter data of the paper's Fig. 7, in design
/// order.  Throws InvalidArgument for max_designs < 0.
struct ScatterSeries {
  std::string device;
  std::string param;  ///< "gm" | "gds" | "Cds" | "Cgs"
  std::vector<double> measured;
  std::vector<double> predicted;
};
ScatterSeries scatter_series(const SequenceBuilder& builder,
                             const Predictor& model,
                             const std::vector<Design>& validation,
                             const std::string& device,
                             const std::string& param, int max_designs = 100);

/// Table VIII-style runtime/success accounting over a set of spec targets.
struct RuntimeStats {
  int total = 0;
  int single_iteration = 0;   ///< solved with one verification simulation
  int multi_iteration = 0;    ///< solved with 2..max iterations
  int failures = 0;
  double avg_single_seconds = 0.0;
  double avg_multi_seconds = 0.0;
  double avg_multi_iterations = 0.0;
  double avg_sims_per_design = 0.0;
};
/// Sizes every target and aggregates the outcome counts in target order.
///
/// Targets are independent: each one is sized by a fresh copy of `copilot`
/// (its own Topology scratch state), and independent targets are evaluated
/// concurrently on `pool`.  All counting fields of the result are therefore
/// bit-identical for any pool width; only the wall-clock averages
/// (avg_*_seconds) vary run to run.
RuntimeStats runtime_stats(const SizingCopilot& copilot,
                           const std::vector<Specs>& targets,
                           const CopilotOptions& opt = {},
                           par::ThreadPool& pool = par::global_pool());

/// Derives unseen-but-achievable spec targets from validation designs by
/// relaxing each measured spec slightly (the "100 unique designs per
/// topology with distinct specifications" protocol of Section IV-C).
/// Throws InvalidArgument for an empty design set or count < 0.
std::vector<Specs> targets_from_designs(const std::vector<Design>& designs,
                                        int count, double relax = 0.05,
                                        uint64_t seed = 99);

}  // namespace ota::core
