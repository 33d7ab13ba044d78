// Training-throughput sweep for the data-parallel trainer.
//
// Trains the same SizingModel on the same 5T-OTA corpus at 1/2/4/8 worker
// threads and reports examples/sec per worker count.  Two hard gates, both
// enforced through the exit code:
//
//  * determinism — every run's per-epoch loss trajectory and final weights
//    must be bit-identical to the serial run's (the DataParallelTrainer
//    contract: thread count is a pure performance knob);
//  * throughput — the 4-thread run must clear 2x the serial examples/sec
//    (skipped in smoke mode, where CI runners make timing untrustworthy).
//
// OTA_TRAIN_SMOKE=1 shrinks the corpus/model and sweeps {1, 4} only; the
// Release CI job runs that mode.  Results are also written as JSON (path
// from OTA_BENCH_JSON, default BENCH_train.json) so scripts/bench_snapshot.sh
// can archive the perf trajectory.  The JSON also records the serial run's
// GEMM call counts (ota::stats sites ml.gemm.{nn,nt,tn}) and the work of a
// fixed-budget 5T-OTA datagen pass (attempts, AC measurements, Newton
// iterations): deterministic work for any pool width, which
// scripts/bench_diff.py pins exactly.
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "core/dataset.hpp"
#include "core/sequence_builder.hpp"
#include "par/thread_pool.hpp"

namespace {

struct Run {
  int threads = 0;
  double seconds = 0.0;
  double examples_per_sec = 0.0;
  double speedup = 1.0;
};

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  const char* smoke_env = std::getenv("OTA_TRAIN_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;
  const Scale sc = Scale::from_env();

  std::printf("=== Training runtime: data-parallel SizingModel::train "
              "(scale '%s'%s) ===\n",
              sc.name.c_str(), smoke ? ", smoke" : "");

  // One deterministic corpus shared by every run.
  auto topo = circuit::make_topology("5T-OTA", tech());
  core::DataGenOptions gopt;
  gopt.target_designs = smoke ? 60 : 200;
  gopt.max_attempts = gopt.target_designs * 200;
  gopt.seed = 2024;
  const core::Dataset ds = core::generate_dataset(
      topo, tech(), core::SpecRange::for_topology("5T-OTA"), gopt);
  const core::SequenceBuilder builder(topo, tech());
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(ds.designs.size());
  for (const auto& d : ds.designs) {
    pairs.emplace_back(builder.encoder_text(d.specs), builder.decoder_text(d));
  }

  core::TrainOptions topt;
  topt.seed = 17;
  if (smoke) {
    topt.epochs = 2;
    topt.d_model = 32;
    topt.d_ff = 64;
    topt.bpe_merges = 128;
  } else {
    topt.epochs = 4;
    topt.d_model = sc.d_model;
    topt.n_heads = sc.n_heads;
    topt.n_layers = sc.n_layers;
    topt.d_ff = sc.d_ff;
  }
  const double trained_examples =
      static_cast<double>(topt.epochs) *
      (1.0 - topt.val_fraction) * static_cast<double>(pairs.size());

  const std::vector<int> sweep = smoke ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 2, 4, 8};
  std::vector<Run> runs;
  std::vector<std::vector<double>> serial_weights;
  std::vector<double> serial_train_loss, serial_val_loss;
  bool bit_identical = true;

  // Every run carries the same (tiny) telemetry cost, so speedups stay fair.
  const bool stats_were_enabled = stats::enabled();
  stats::enable();
  const auto site_count = [](const std::map<std::string, stats::SiteTotals>& s,
                             const char* site) -> uint64_t {
    const auto it = s.find(site);
    return it == s.end() ? 0 : it->second.count;
  };

  // Fixed-budget datagen: with the target unbounded every attempt runs, so
  // the counts below do not depend on the pool width.
  core::DataGenOptions budget;
  budget.target_designs = std::numeric_limits<int>::max();
  budget.max_attempts = 400;
  budget.seed = 2024;
  const auto datagen_before = stats::snapshot();
  const core::Dataset budget_ds = core::generate_dataset(
      topo, tech(), core::SpecRange::for_topology("5T-OTA"), budget);
  const auto datagen_after = stats::snapshot();
  const auto datagen_delta = [&](const char* site) {
    return site_count(datagen_after, site) - site_count(datagen_before, site);
  };
  const uint64_t datagen_ac = datagen_delta("spice.ac.measure");
  const uint64_t datagen_newton = datagen_delta("spice.dc.newton_iterations");
  std::printf("fixed-budget datagen: %d attempts, %llu AC measurements, "
              "%llu Newton iterations\n",
              budget_ds.attempts, static_cast<unsigned long long>(datagen_ac),
              static_cast<unsigned long long>(datagen_newton));

  uint64_t gemm_calls[3] = {0, 0, 0};  // nn, nt, tn of the serial run
  const char* gemm_sites[3] = {"ml.gemm.nn", "ml.gemm.nt", "ml.gemm.tn"};

  std::printf("%8s %10s %14s %9s  %s\n", "threads", "seconds", "examples/s",
              "speedup", "trajectory");
  for (int t : sweep) {
    par::ThreadPool pool(t);
    core::SizingModel model;
    const auto before = stats::snapshot();
    const core::TrainHistory hist = model.train(pairs, topt, pool);
    if (runs.empty()) {
      const auto after = stats::snapshot();
      for (int g = 0; g < 3; ++g) {
        gemm_calls[g] = site_count(after, gemm_sites[g]) -
                        site_count(before, gemm_sites[g]);
      }
    }

    Run run;
    run.threads = t;
    run.seconds = hist.seconds;
    run.examples_per_sec =
        hist.seconds > 0.0 ? trained_examples / hist.seconds : 0.0;

    bool identical = true;
    if (runs.empty()) {
      for (const auto& p : model.transformer().parameters()) {
        serial_weights.push_back(p->value.data());
      }
      serial_train_loss = hist.train_loss;
      serial_val_loss = hist.val_loss;
    } else {
      run.speedup = run.examples_per_sec / runs[0].examples_per_sec;
      identical = hist.train_loss == serial_train_loss &&
                  hist.val_loss == serial_val_loss;
      const auto& params = model.transformer().parameters();
      identical = identical && params.size() == serial_weights.size();
      for (size_t i = 0; identical && i < params.size(); ++i) {
        identical = params[i]->value.data() == serial_weights[i];
      }
      bit_identical = bit_identical && identical;
    }
    std::printf("%8d %9.2fs %14.1f %8.2fx  %s\n", t, run.seconds,
                run.examples_per_sec, run.speedup,
                runs.empty() ? "(reference)"
                             : (identical ? "bit-identical" : "DIVERGED"));
    runs.push_back(run);
  }
  if (!stats_were_enabled) stats::disable();
  std::printf("serial GEMM calls: nn %llu, nt %llu, tn %llu\n",
              static_cast<unsigned long long>(gemm_calls[0]),
              static_cast<unsigned long long>(gemm_calls[1]),
              static_cast<unsigned long long>(gemm_calls[2]));

  std::vector<benchsupport::JsonObject> run_rows;
  for (const auto& r : runs) {
    run_rows.push_back(benchsupport::JsonObject()
                           .num("threads", r.threads)
                           .num("seconds", r.seconds, "%.3f")
                           .num("examples_per_sec", r.examples_per_sec, "%.2f")
                           .num("speedup", r.speedup, "%.3f"));
  }
  write_bench_json("BENCH_train.json",
                   benchsupport::JsonObject()
                       .str("bench", "train_runtime")
                       .str("scale", sc.name)
                       .boolean("smoke", smoke)
                       .num("corpus_pairs", pairs.size())
                       .num("epochs", topt.epochs)
                       .num("batch_size", topt.batch_size)
                       .boolean("bit_identical", bit_identical)
                       .num("gemm_nn_calls", gemm_calls[0])
                       .num("gemm_nt_calls", gemm_calls[1])
                       .num("gemm_tn_calls", gemm_calls[2])
                       .num("datagen_attempts", budget_ds.attempts)
                       .num("datagen_ac_measurements", datagen_ac)
                       .num("datagen_newton_iterations", datagen_newton)
                       .array("runs", std::move(run_rows)));

  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: parallel training diverged from the serial "
                 "trajectory\n");
    return 1;
  }
  if (!smoke && par::hardware_threads() >= 4) {
    // The exit-code gate sits at 2x for the 4-thread run: the sweep above
    // typically lands near-linear until the batch size caps the parallelism,
    // so 2x leaves room for scheduler noise without letting a serialization
    // regression through.  On hosts with fewer than 4 hardware threads a
    // speedup is physically impossible — the sweep still runs (the
    // bit-identity gate above is what matters there) but the timing floor
    // is not enforced.
    constexpr double kRequiredSpeedup = 2.0;
    for (const Run& run : runs) {
      if (run.threads >= 4 && run.speedup < kRequiredSpeedup) {
        std::fprintf(stderr,
                     "FAIL: %d-thread training speedup %.2fx below the %.0fx "
                     "floor\n",
                     run.threads, run.speedup, kRequiredSpeedup);
        return 1;
      }
    }
  } else if (!smoke) {
    std::printf("(only %d hardware thread(s): throughput floor not enforced)\n",
                par::hardware_threads());
  }
  return 0;
}
