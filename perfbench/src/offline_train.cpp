// offline_train: the paper's one-time training phase.
//
// Dataset generation sweeps a fixed candidate budget per topology — 5T-OTA,
// CM-OTA and 2S-OTA, three MNA sizes and acceptance rates — in repeated
// seeded jobs; then SizingModel::train runs a few epochs on the 5T corpus.
// This is SPICE/LU-bound work with no decoding, the counter-workload to the
// two decode-heavy ones, and its training half drives the GEMM kernels with
// large row counts where decode drives them one row at a time.
#include <algorithm>
#include <climits>
#include <cmath>
#include <memory>
#include <optional>

#include "core/dataset.hpp"
#include "core/sequence_builder.hpp"
#include "core/sizing_model.hpp"
#include "nlp/bpe.hpp"
#include "par/thread_pool.hpp"
#include "spice/testbench.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ota;

constexpr const char* kTopologies[] = {"5T-OTA", "CM-OTA", "2S-OTA"};
/// Candidates per topology per datagen job: more for CM-OTA, whose
/// acceptance rate is lowest, so every job yields designs of all three.
constexpr int kAttempts[] = {1200, 2400, 1200};
constexpr double kDatagenShare = 0.6;  ///< of the measurement time
constexpr size_t kTrainDesigns = 100;  ///< 5T designs in the training corpus
constexpr int kEpochs = 2;
constexpr int kTrainings = 5;          ///< identical trainings, for a median rate
constexpr int kSetupRepeats = 24;  ///< each ~70 ms, six per CPU on four
constexpr size_t kReevaluated = 4;     ///< designs per topology re-simulated

bool losses_finite(const core::TrainHistory& h) {
  const auto finite = [](const std::vector<double>& v) {
    return !v.empty() &&
           std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
  };
  return finite(h.train_loss) && finite(h.val_loss);
}

struct Setup {
  std::vector<circuit::Topology> topologies;
  std::vector<core::SpecRange> ranges;
  std::unique_ptr<core::SequenceBuilder> builder;  ///< 5T-OTA sequences
  std::vector<std::optional<std::pair<double, double>>> icmr;
};

Setup build_setup(const device::Technology& tech, Tracer& tr) {
  Tracer::Scope phase(tr, "offline_train.setup", "bench");
  Setup s;
  for (const char* name : kTopologies) {
    Tracer::Scope span(tr, "circuit::make_topology", "core");
    s.topologies.push_back(circuit::make_topology(name, tech));
    s.ranges.push_back(core::SpecRange::for_topology(name));
  }
  {
    Tracer::Scope span(tr, "core::SequenceBuilder", "core");
    s.builder = std::make_unique<core::SequenceBuilder>(s.topologies[0], tech);
  }
  // The paper's pre-sweep characterization (Section IV-A): each testbench's
  // input common-mode range at its nominal widths.
  for (auto& topo : s.topologies) {
    Tracer::Scope span(tr, "spice::input_common_mode_range", "spice");
    s.icmr.push_back(spice::input_common_mode_range(topo, tech));
  }
  return s;
}

struct Datagen {
  std::vector<std::vector<core::Design>> designs{std::size(kTopologies)};
  uint64_t attempts = 0, accepted = 0, dc_failures = 0;
  std::vector<double> job_latencies;
  std::vector<double> job_attempt_rates;  ///< candidates simulated per second
  double accept_ratio() const {
    return attempts > 0 ? static_cast<double>(accepted) / static_cast<double>(attempts) : 0.0;
  }
  /// Accepted designs per second: the median job's candidate rate times the
  /// acceptance ratio over every job.  Each job simulates a fixed budget, so
  /// the median rate is robust to one job slowed by a noisy neighbour.
  double designs_per_s() const { return median(job_attempt_rates) * accept_ratio(); }
};

Datagen run_datagen(const device::Technology& tech, Setup& s, uint64_t seed,
                    double budget, Tracer& tr) {
  Tracer::Scope window(tr, "offline_train.datagen", "bench");
  Datagen d;
  const auto t0 = Clock::now();
  double job_seconds = 0.0;
  int64_t job = 0;
  do {
    const auto job_start = Clock::now();
    const uint64_t attempts_before = d.attempts;
    for (size_t t = 0; t < std::size(kTopologies); ++t) {
      core::DataGenOptions gen;
      gen.target_designs = INT_MAX;  // the candidate budget bounds the job
      gen.max_attempts = kAttempts[t];
      gen.seed = derive_seed(seed, static_cast<uint64_t>(job) * 16 + t);
      core::Dataset ds;
      {
        Tracer::Scope span(tr, "core::generate_dataset", "core", job);
        ds = core::generate_dataset(s.topologies[t], tech, s.ranges[t], gen);
      }
      d.attempts += static_cast<uint64_t>(ds.attempts);
      d.dc_failures += static_cast<uint64_t>(ds.dc_failures);
      d.accepted += ds.designs.size();
      for (auto& x : ds.designs) d.designs[t].push_back(std::move(x));
    }
    job_seconds = seconds_between(job_start, Clock::now());
    d.job_latencies.push_back(job_seconds);
    d.job_attempt_rates.push_back(static_cast<double>(d.attempts - attempts_before) / job_seconds);
    ++job;
  } while (seconds_between(t0, Clock::now()) + job_seconds <= budget);
  return d;
}

struct Training {
  std::vector<core::TrainHistory> histories;  ///< one per identical training
  std::vector<double> rates;                  ///< examples per second, each
  uint64_t examples = 0;  ///< training examples processed, all trainings
  std::vector<std::string> corpus;
  const core::TrainHistory& history() const { return histories.front(); }
};

Training run_training(const Setup& s, const Datagen& d, Tracer& tr) {
  Tracer::Scope phase(tr, "offline_train.train", "bench");
  const auto& designs = d.designs[0];
  const size_t n = std::min(designs.size(), kTrainDesigns);
  std::vector<std::pair<std::string, std::string>> pairs;
  Training out;
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(s.builder->encoder_text(designs[i].specs),
                       s.builder->decoder_text(designs[i]));
    out.corpus.push_back(pairs.back().first);
    out.corpus.push_back(pairs.back().second);
  }
  core::TrainOptions opt;
  opt.epochs = kEpochs;
  opt.seed = 7;
  // SizingModel::train holds out val_fraction of the pairs for validation.
  const size_t n_val =
      std::min(n / 2, static_cast<size_t>(opt.val_fraction * static_cast<double>(n)));
  const auto per_training = static_cast<uint64_t>((n - n_val) * kEpochs);
  for (int k = 0; k < kTrainings; ++k) {
    core::SizingModel model;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tr, "core::SizingModel::train", "core", k);
      out.histories.push_back(model.train(pairs, opt));
    }
    out.rates.push_back(static_cast<double>(per_training) / seconds_between(t0, Clock::now()));
    out.examples += per_training;
  }
  return out;
}

/// Every design inside its window; a sample re-simulated reproduces its specs
/// exactly (timed: spice.evaluate_ms); every loss finite.
void check_outputs(const device::Technology& tech, const Setup& s, const Datagen& d,
                   const Training& train, Tracer& tr, Report& report,
                   std::vector<double>& evaluate_ms) {
  Tracer::Scope phase(tr, "offline_train.checks", "bench");
  for (size_t t = 0; t < std::size(kTopologies); ++t) {
    const bool inside = std::all_of(d.designs[t].begin(), d.designs[t].end(),
                                    [&](const core::Design& x) { return s.ranges[t].contains(x.specs); });
    report.check(inside, std::string("every ") + kTopologies[t] + " design lies in its SpecRange");
    report.check(d.designs[t].size() >= kReevaluated,
                 std::string("datagen accepted enough ") + kTopologies[t] + " designs");
    circuit::Topology topo = s.topologies[t];
    for (size_t i = 0; i < std::min(kReevaluated, d.designs[t].size()); ++i) {
      const core::Design& x = d.designs[t][i];
      spice::EvalResult r;
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(tr, "spice::evaluate", "spice");
        r = spice::evaluate(topo, tech, x.widths);
      }
      evaluate_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      report.check(r.metrics.gain_db == x.specs.gain_db &&
                       r.metrics.bw_3db_hz == x.specs.bw_hz &&
                       r.metrics.ugf_hz == x.specs.ugf_hz,
                   std::string("a ") + kTopologies[t] + " design re-simulates to its specs");
    }
  }
  report.check(losses_finite(train.history()), "training losses are finite");
  bool reproducible = true;
  for (const auto& h : train.histories) {
    reproducible = reproducible && h.train_loss == train.history().train_loss &&
                   h.val_loss == train.history().val_loss;
  }
  report.check(reproducible, "retraining on the same corpus reproduces every loss");
}

}  // namespace

void run_offline_train(const RunOptions& opt, Report& report) {
  const device::Technology tech = device::Technology::default65nm();
  Tracer tracer(opt.trace);
  const int64_t wall_start = tracer.now_ns();
  // The persistent workers datagen and training share, started before the
  // set-ups so that none of them inherits a set-up's CPU pin.
  par::global_pool();
  Setup setup;
  if (opt.trace) {
    setup = build_setup(tech, tracer);
  } else {
    timed_setups(report, kSetupRepeats, [&] { setup = build_setup(tech, tracer); },
                 /*across_cpus=*/true);
  }

  LayerCounters counters;
  if (opt.trace) counters.begin();
  const Datagen datagen = run_datagen(tech, setup, opt.seed, kDatagenShare * opt.seconds, tracer);
  const Training training = run_training(setup, datagen, tracer);
  if (opt.trace) counters.end();

  const double designs_per_s = datagen.designs_per_s();
  const double examples_per_s = median(training.rates);
  report.ops("datagen_attempts", datagen.attempts, datagen.attempts, 0);
  report.metric("throughput_per_s", designs_per_s, "1/s");
  report.metric("throughput_alt_per_s", examples_per_s, "1/s");
  report.metric("core.datagen.job_s.p50", percentile(datagen.job_latencies, 50.0), "s");
  report.metric("core.datagen.job_s.p90", percentile(datagen.job_latencies, 90.0), "s");
  report.metric("datagen_designs_per_s", designs_per_s, "1/s");
  report.metric("train_examples_per_s", examples_per_s, "1/s");
  report.metric("train_val_loss", training.history().val_loss.back(), "loss");
  std::printf("offline_train: %zu datagen jobs, %llu attempts, %llu designs; "
              "trained on %llu examples\n",
              datagen.job_latencies.size(), static_cast<unsigned long long>(datagen.attempts),
              static_cast<unsigned long long>(datagen.accepted),
              static_cast<unsigned long long>(training.examples));
  for (size_t t = 0; t < std::size(kTopologies); ++t) {
    if (setup.icmr[t]) {
      std::printf("%s input common-mode range: %.3f to %.3f V\n", kTopologies[t],
                  setup.icmr[t]->first, setup.icmr[t]->second);
    } else {
      std::printf("%s input common-mode range: none at nominal widths\n", kTopologies[t]);
    }
  }
  print_series("datagen candidates/s per job", datagen.job_attempt_rates);
  print_series("training examples/s per training", training.rates);

  const bool trained = losses_finite(training.history());
  report.ops("training_examples", training.examples, trained ? training.examples : 0,
             trained ? 0 : training.examples);
  std::vector<double> evaluate_ms;
  check_outputs(tech, setup, datagen, training, tracer, report, evaluate_ms);
  if (!opt.trace) return;

  {
    Tracer::Scope span(tracer, "nlp::BpeTokenizer::train", "nlp");
    const auto t0 = Clock::now();
    (void)nlp::BpeTokenizer::train(training.corpus, {.num_merges = core::TrainOptions{}.bpe_merges});
    report.metric("nlp.bpe.train_s", seconds_between(t0, Clock::now()), "s");
  }
  report.metric("spice.evaluate_ms", median(evaluate_ms), "ms");
  report.metric("core.datagen.attempts", static_cast<double>(datagen.attempts), "count");
  report.metric("core.datagen.accept_ratio", datagen.accept_ratio(), "ratio");
  report.metric("core.datagen.dc_failures", static_cast<double>(datagen.dc_failures), "count");
  const double n_train = static_cast<double>(training.examples) / (kTrainings * kEpochs);
  report.metric("ml.train.epoch_s", n_train / examples_per_s, "s");
  report.metric("ml.train.val_loss", training.history().val_loss.back(), "loss");
  counters.publish_common(report);
  finish_trace(tracer, wall_start, tracer.now_ns(), opt, report);

  tracer.set_enabled(false);
  const Datagen untraced = run_datagen(tech, setup, opt.seed, kDatagenShare * opt.seconds, tracer);
  report_overhead(1.0 / median(untraced.job_attempt_rates),
                  1.0 / median(datagen.job_attempt_rates), report);
}

}  // namespace perfbench
