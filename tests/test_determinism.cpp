// Parallel-determinism property tests.
//
// The par layer's contract is that pool width is a pure performance knob:
// dataset generation, campaign evaluation, training and the baseline
// optimizers must produce bit-identical results on 1-, 3- and 8-worker pools
// at the same seed (counted SplitMix64 RNG streams + per-worker state
// isolation), while distinct seeds must still produce distinct outputs.
// Each test builds the par::ThreadPool(n) it needs and passes it in, so the
// contract holds for every OTA_THREADS the default global_pool() can take.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "baselines/baselines.hpp"
#include "common/rng.hpp"
#include "core/copilot.hpp"
#include "core/metrics.hpp"
#include "core/nearest_predictor.hpp"
#include "core/sizing_model.hpp"
#include "dataset_equality.hpp"
#include "linalg/stats.hpp"

namespace ota::core {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();

  Dataset generate(const std::string& name, int workers, uint64_t seed = 7,
                   int n = 25) {
    auto topo = circuit::make_topology(name, tech);
    DataGenOptions opt;
    opt.target_designs = n;
    opt.max_attempts = 20000;
    opt.seed = seed;
    par::ThreadPool pool(workers);
    return generate_dataset(topo, tech, SpecRange::for_topology(name), opt,
                            pool);
  }
};

TEST_F(DeterminismTest, SplitMix64StreamsAreDistinctAndStable) {
  // Same (seed, stream) -> same value; different stream or seed -> different.
  EXPECT_EQ(stream_seed(42, 0), stream_seed(42, 0));
  for (uint64_t s = 0; s < 16; ++s) {
    EXPECT_NE(stream_seed(42, s), stream_seed(42, s + 1)) << s;
    EXPECT_NE(stream_seed(42, s), stream_seed(43, s)) << s;
  }
  // Counted Rng streams inherit the separation.
  Rng a(42, 3), b(42, 4), a2(42, 3);
  const double va = a.uniform(), vb = b.uniform();
  EXPECT_NE(va, vb);
  EXPECT_EQ(va, a2.uniform());
}

TEST_F(DeterminismTest, DatasetBitIdenticalAcrossThreadCounts) {
  const Dataset serial = generate("5T-OTA", 1);
  const Dataset par8 = generate("5T-OTA", 8);
  ASSERT_EQ(serial.designs.size(), 25u);
  expect_bit_identical(serial, par8);

  // An odd worker count shards differently but must agree too.
  const Dataset par3 = generate("5T-OTA", 3);
  expect_bit_identical(serial, par3);
}

TEST_F(DeterminismTest, TwoStageDatasetBitIdenticalAcrossThreadCounts) {
  // The 2S-OTA exercises the current-balance jitter draw (a second RNG shape
  // on the same per-attempt stream).
  const Dataset serial = generate("2S-OTA", 1, 11, 10);
  const Dataset par8 = generate("2S-OTA", 8, 11, 10);
  ASSERT_EQ(serial.designs.size(), 10u);
  expect_bit_identical(serial, par8);
}

TEST_F(DeterminismTest, DatasetSeedsDiffer) {
  const Dataset a = generate("5T-OTA", 8, 1, 5);
  const Dataset b = generate("5T-OTA", 8, 2, 5);
  ASSERT_FALSE(a.designs.empty());
  ASSERT_FALSE(b.designs.empty());
  EXPECT_NE(a.designs[0].widths, b.designs[0].widths);
}

TEST_F(DeterminismTest, RuntimeStatsCountsIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions opt;
  opt.target_designs = 60;
  opt.max_attempts = 20000;
  opt.seed = 31;
  const Dataset ds =
      generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), opt);
  const SequenceBuilder builder(topo, tech);
  const NearestNeighborPredictor nn(builder, ds.designs);
  const LutSet luts = LutSet::build(tech);
  const SizingCopilot copilot(topo, tech, builder, nn, luts);
  const auto targets = targets_from_designs(ds.designs, 8, 0.06, 17);

  par::ThreadPool pool1(1), pool8(8);
  const RuntimeStats serial = runtime_stats(copilot, targets, {}, pool1);
  const RuntimeStats par8 = runtime_stats(copilot, targets, {}, pool8);

  // Every counting field must agree bit-for-bit; only the wall-clock
  // averages are allowed to differ between runs.
  EXPECT_EQ(serial.total, par8.total);
  EXPECT_EQ(serial.single_iteration, par8.single_iteration);
  EXPECT_EQ(serial.multi_iteration, par8.multi_iteration);
  EXPECT_EQ(serial.failures, par8.failures);
  EXPECT_EQ(serial.avg_multi_iterations, par8.avg_multi_iterations);
  EXPECT_EQ(serial.avg_sims_per_design, par8.avg_sims_per_design);
  EXPECT_EQ(serial.total, 8);
}

TEST_F(DeterminismTest, TargetSeedsDiffer) {
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions opt;
  opt.target_designs = 20;
  opt.max_attempts = 20000;
  opt.seed = 31;
  const Dataset ds =
      generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), opt);
  const auto ta = targets_from_designs(ds.designs, 4, 0.05, 1);
  const auto tb = targets_from_designs(ds.designs, 4, 0.05, 2);
  EXPECT_NE(ta[0].ugf_hz, tb[0].ugf_hz);
  EXPECT_THROW((void)targets_from_designs(ds.designs, -1, 0.05, 1),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Data-parallel training (ml::DataParallelTrainer via SizingModel::train).
//
// Synthetic text pairs keep these independent of (slow) dataset generation:
// the property under test is purely that the thread count is a performance
// knob — the per-epoch loss trajectory, the final weights, and the greedy
// predictions must be bit-identical for OTA_THREADS-style worker counts of
// 1, 3, and 8 at a fixed seed.

std::vector<std::pair<std::string, std::string>> synthetic_pairs(int n) {
  std::vector<std::pair<std::string, std::string>> pairs;
  Rng rng(99);
  for (int i = 0; i < n; ++i) {
    char enc[96], dec[96];
    std::snprintf(enc, sizeof enc, "gain %.2f bw %.2f ugf %.2f",
                  rng.uniform(20.0, 60.0), rng.uniform(1.0, 9.0),
                  rng.uniform(10.0, 90.0));
    std::snprintf(dec, sizeof dec, "M1 w=%.2fu M2 w=%.2fu M3 w=%.2fu",
                  rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0),
                  rng.uniform(0.5, 20.0));
    pairs.emplace_back(enc, dec);
  }
  return pairs;
}

TrainOptions tiny_train_options(uint64_t seed = 7) {
  TrainOptions opt;
  opt.epochs = 2;
  opt.batch_size = 5;  // deliberately not a multiple of the example count
  opt.bpe_merges = 48;
  opt.d_model = 16;
  opt.n_heads = 2;
  opt.d_ff = 32;
  opt.dropout = 0.1;  // nonzero: the counted dropout streams are on trial
  opt.seed = seed;
  return opt;
}

void expect_same_weights(const SizingModel& a, const SizingModel& b) {
  const auto& pa = a.transformer().parameters();
  const auto& pb = b.transformer().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.data(), pb[i]->value.data())
        << "parameter " << i;
  }
}

TEST_F(DeterminismTest, TrainingBitIdenticalAcrossThreadCounts) {
  const auto pairs = synthetic_pairs(23);

  par::ThreadPool pool1(1), pool8(8), pool3(3);
  SizingModel serial;
  const TrainHistory h1 = serial.train(pairs, tiny_train_options(), pool1);
  ASSERT_EQ(h1.train_loss.size(), 2u);
  EXPECT_EQ(h1.threads, 1);

  SizingModel par8;
  const TrainHistory h8 = par8.train(pairs, tiny_train_options(), pool8);
  // Worker count is capped at the batch size (5): more workers than
  // examples per batch could never be occupied.
  EXPECT_EQ(h8.threads, 5);

  // Loss trajectory: exact, not approximate, equality per epoch.
  EXPECT_EQ(h1.train_loss, h8.train_loss);
  EXPECT_EQ(h1.val_loss, h8.val_loss);
  expect_same_weights(serial, par8);
  EXPECT_EQ(serial.predict(pairs[0].first, 40), par8.predict(pairs[0].first, 40));

  // An odd worker count shards batches differently but must agree too.
  SizingModel par3;
  const TrainHistory h3 = par3.train(pairs, tiny_train_options(), pool3);
  EXPECT_EQ(h1.train_loss, h3.train_loss);
  EXPECT_EQ(h1.val_loss, h3.val_loss);
  expect_same_weights(serial, par3);
}

TEST_F(DeterminismTest, TrainingSeedsDiffer) {
  const auto pairs = synthetic_pairs(12);
  par::ThreadPool pool(4);
  SizingModel a, b;
  const TrainHistory ha = a.train(pairs, tiny_train_options(7), pool);
  const TrainHistory hb = b.train(pairs, tiny_train_options(8), pool);
  ASSERT_FALSE(ha.train_loss.empty());
  ASSERT_FALSE(hb.train_loss.empty());
  EXPECT_NE(ha.train_loss[0], hb.train_loss[0]);
}

// ---------------------------------------------------------------------------
// Validation sweeps (core/metrics.hpp).  correlation_table and scatter_series
// spread one Predictor::predict per design across the global pool, so their
// output must be the serial loop's: each design's predict, parsed, then
// filtered by key, in design order.  The global pool's width is OTA_THREADS,
// so the tier-1 passes and the TSan job check this at several widths.

double measured_value(const device::SmallSignal& ss, const std::string& param) {
  if (param == "gm") return ss.gm;
  if (param == "gds") return ss.gds;
  if (param == "Cds") return ss.cds;
  return ss.cgs;
}

TEST_F(DeterminismTest, CorrelationSweepsMatchSerialPredictions) {
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions dopt;
  dopt.target_designs = 10;
  dopt.max_attempts = 20000;
  dopt.seed = 31;
  const Dataset ds =
      generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), dopt);
  const SequenceBuilder builder(topo, tech);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const Design& d : ds.designs) {
    pairs.emplace_back(builder.encoder_text(d.specs), builder.decoder_text(d));
  }
  // Enough epochs that predictions carry parseable keys; a short positional
  // table keeps the sweeps' 800-token budget from decoding 800 tokens.
  TrainOptions topt = tiny_train_options();
  topt.epochs = 30;
  topt.lr = 1e-2;
  topt.n_layers = 1;
  topt.max_len = 128;
  SizingModel model;
  model.train(pairs, topt);

  // The serial reference, on this thread; 800 tokens is the sweeps' budget.
  std::vector<std::map<std::string, double>> serial;
  for (const Design& d : ds.designs) {
    serial.push_back(builder.parse_decoder(
        model.predict(builder.encoder_text(d.specs), 800)));
  }
  const int n = static_cast<int>(ds.designs.size());
  const auto rows = correlation_table(topo, builder, model, ds.designs, n);
  ASSERT_EQ(rows.size(), topo.match_groups.size());

  size_t pairs_seen = 0;
  for (size_t g = 0; g < rows.size(); ++g) {
    const std::string& device = topo.match_groups[g].devices.front();
    int samples = 0;
    for (const std::string param : {"gm", "gds", "Cds", "Cgs"}) {
      std::vector<double> predicted, measured;
      for (size_t i = 0; i < ds.designs.size(); ++i) {
        const auto it = serial[i].find(param + device);
        if (it == serial[i].end()) continue;
        predicted.push_back(it->second);
        measured.push_back(
            measured_value(ds.designs[i].devices.at(device), param));
      }
      const ScatterSeries s =
          scatter_series(builder, model, ds.designs, device, param, n);
      EXPECT_EQ(s.predicted, predicted) << param << device;
      EXPECT_EQ(s.measured, measured) << param << device;
      pairs_seen += predicted.size();
      samples = std::max(samples, static_cast<int>(predicted.size()));

      const double r =
          predicted.size() >= 3 ? linalg::pearson(measured, predicted) : 0.0;
      const double table_r = param == "gm"    ? rows[g].r_gm
                             : param == "gds" ? rows[g].r_gds
                             : param == "Cds" ? rows[g].r_cds
                                              : rows[g].r_cgs;
      EXPECT_EQ(table_r, r) << param << device;
    }
    EXPECT_EQ(rows[g].samples, samples) << device;
  }
  EXPECT_GT(pairs_seen, 0u) << "no prediction parsed: the check is vacuous";
}

// ---------------------------------------------------------------------------
// Baseline optimizers (Table IX).  PSO, DE and BO evaluate each generation as
// one batch on the pool, with every RNG draw on the calling thread.  The
// target is one no 5T-OTA in range can meet (60 dB single-stage), so no run
// stops early: every generation of the budget is on trial at each width.

template <typename Optimizer>
void expect_optimizer_bit_identical(const device::Technology& tech,
                                    Optimizer optimize) {
  const int widths[] = {1, 3, 8};
  std::vector<baselines::OptResult> results;
  for (int workers : widths) {
    baselines::SizingProblem problem(circuit::make_5t_ota(tech), tech,
                                     Specs{60.0, 50e6, 5e9});
    par::ThreadPool pool(workers);
    results.push_back(optimize(problem, pool));
  }
  const baselines::OptResult& serial = results.front();
  EXPECT_FALSE(serial.success);
  EXPECT_GT(serial.iterations, 1);
  for (size_t i = 1; i < results.size(); ++i) {
    const baselines::OptResult& r = results[i];
    EXPECT_EQ(r.best_x, serial.best_x) << widths[i] << " workers";
    EXPECT_EQ(r.best_cost, serial.best_cost) << widths[i] << " workers";
    EXPECT_EQ(r.simulations, serial.simulations) << widths[i] << " workers";
    EXPECT_EQ(r.iterations, serial.iterations) << widths[i] << " workers";
    EXPECT_EQ(r.success, serial.success) << widths[i] << " workers";
  }
}

TEST_F(DeterminismTest, ParticleSwarmBitIdenticalAcrossThreadCounts) {
  baselines::PsoOptions opt;
  opt.max_simulations = 60;
  opt.swarm_size = 8;
  expect_optimizer_bit_identical(
      tech, [&](baselines::SizingProblem& p, par::ThreadPool& pool) {
        return baselines::particle_swarm(p, opt, pool);
      });
}

TEST_F(DeterminismTest, DifferentialEvolutionBitIdenticalAcrossThreadCounts) {
  baselines::DeOptions opt;
  opt.max_simulations = 60;
  opt.population = 8;
  expect_optimizer_bit_identical(
      tech, [&](baselines::SizingProblem& p, par::ThreadPool& pool) {
        return baselines::differential_evolution(p, opt, pool);
      });
}

TEST_F(DeterminismTest, BayesianOptimizationBitIdenticalAcrossThreadCounts) {
  baselines::BoOptions opt;
  opt.max_simulations = 20;
  opt.initial_samples = 8;
  opt.candidates = 64;
  expect_optimizer_bit_identical(
      tech, [&](baselines::SizingProblem& p, par::ThreadPool& pool) {
        return baselines::bayesian_optimization(p, opt, pool);
      });
}

}  // namespace
}  // namespace ota::core
