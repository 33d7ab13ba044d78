// campaign_open: open-loop sizing traffic against serve::CampaignServer.
//
// One generator thread sends 5T-OTA / 2S-OTA spec targets on a fixed Poisson
// schedule, each at its due time whether or not earlier campaigns have
// finished.  A campaign's latency runs from its due time to its resolution,
// so a stall is charged to every campaign queued behind it.  The server holds
// two small models trained during set-up and runs more workers than the host
// has cores, so concurrent Stage-II decodes coalesce in the shared decode
// scheduler while other campaigns simulate.
//
// The open-loop schedule fixes how many campaigns are served per second, so
// the throughput figures come from the server itself: the open loop's
// service rate (campaigns per second of campaign run time) and the capacity
// of closed bursts, in which a fixed slice of the mix is submitted at once
// and the server works through it as fast as it can.
#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "core/copilot.hpp"
#include "core/dataset.hpp"
#include "core/metrics.hpp"
#include "core/sizing_model.hpp"
#include "par/thread_pool.hpp"
#include "serve/campaign_server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ota;

constexpr int kCampaigns = 100;  ///< so p90 has 10 samples beyond it
/// Offered load in campaigns/s: about half the burst capacity the run
/// measures (11.7/s with 8 workers on a 4-core Xeon).
constexpr double kOfferedRate = 5.5;
constexpr int kSetupRepeats = 2;  ///< each trains two models: ~10 s
/// Campaigns per closed burst: two per worker at the minimum of 8 workers,
/// so the queue never runs dry before the burst's tail.
constexpr int kBurst = 16;
constexpr double kBurstShare = 0.5;  ///< of --seconds spent on bursts
constexpr int kMinBursts = 3;
constexpr int kTrainDesigns = 160;
constexpr int kReferenceSample = 4;   ///< campaigns re-run on the serial copilot
/// Stage-II token budget per prediction.  Predictions average about 160
/// tokens under this cap; it stops one that never emits <eos> at 300 instead
/// of the default 800, and so trims the heaviest campaigns, which made the
/// latency tail swing by 23% between runs.
constexpr int kMaxDecodeTokens = 300;
constexpr const char* kTopologies[] = {"5T-OTA", "2S-OTA"};

struct ServedModel {
  std::string name;
  circuit::Topology topology;
  std::vector<core::Design> designs;
  std::unique_ptr<core::SequenceBuilder> builder;
  std::shared_ptr<core::SizingModel> model;
};

struct Setup {
  std::shared_ptr<const core::LutSet> luts;
  std::vector<ServedModel> models;
  double lut_build_s = 0.0;
};

Setup build_setup(const device::Technology& tech, Tracer& tr) {
  Tracer::Scope phase(tr, "campaign_open.setup", "bench");
  Setup s;
  {
    Tracer::Scope span(tr, "core::LutSet::build", "lut");
    const auto t0 = Clock::now();
    s.luts = std::make_shared<const core::LutSet>(core::LutSet::build(tech));
    s.lut_build_s = seconds_between(t0, Clock::now());
  }
  for (const char* name : kTopologies) {
    ServedModel m{name, circuit::make_topology(name, tech), {}, nullptr, nullptr};
    core::DataGenOptions gen;
    gen.target_designs = kTrainDesigns;
    gen.max_attempts = kTrainDesigns * 200;
    gen.seed = 2024;
    {
      Tracer::Scope span(tr, "core::generate_dataset", "core");
      m.designs = core::generate_dataset(m.topology, tech,
                                         core::SpecRange::for_topology(name), gen)
                      .designs;
    }
    m.builder = std::make_unique<core::SequenceBuilder>(m.topology, tech);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const auto& d : m.designs) {
      pairs.emplace_back(m.builder->encoder_text(d.specs), m.builder->decoder_text(d));
    }
    core::TrainOptions train;
    train.seed = 17;
    train.epochs = 3;
    train.lr = 3e-3;
    train.d_model = 64;
    train.n_heads = 4;
    train.n_layers = 2;
    train.d_ff = 128;
    m.model = std::make_shared<core::SizingModel>();
    {
      Tracer::Scope span(tr, "core::SizingModel::train", "core");
      m.model->train(pairs, train);
    }
    s.models.push_back(std::move(m));
  }
  return s;
}

struct Campaign {
  size_t id = 0;  ///< position in the mix
  size_t model = 0;
  core::Specs target;
  double due = 0.0;  ///< seconds after the pass starts
};

/// The campaign mix: kCampaigns campaigns, half per topology, each target
/// relaxed from one of that topology's known designs, in a fixed order.
/// It is the same for every seed: which heavy campaigns land together
/// dominates the latency of 100 campaigns, and a seeded mix moved p50 by
/// ~25% between runs.
std::vector<Campaign> make_mix(const Setup& s) {
  std::vector<Campaign> out;
  for (size_t m = 0; m < s.models.size(); ++m) {
    const int count = kCampaigns / static_cast<int>(s.models.size()) +
                      (static_cast<int>(m) < kCampaigns % static_cast<int>(s.models.size()) ? 1 : 0);
    for (const core::Specs& t : core::targets_from_designs(s.models[m].designs, count, 0.06,
                                                            4242 + m)) {
      out.push_back({0, m, t, 0.0});
    }
  }
  Rng mix(4243);
  std::shuffle(out.begin(), out.end(), mix.engine());
  for (size_t i = 0; i < out.size(); ++i) out[i].id = i;
  return out;
}

/// Due times: a fixed Poisson schedule at `rate` (n arrivals in [0, n /
/// rate], i.e. n sorted uniform draws), each jittered by up to a quarter of
/// the mean gap from the seed.  Every seed offers the same work with the
/// same burstiness; the seed moves exactly when each campaign meets the
/// others in flight.
void schedule(std::vector<Campaign>& traffic, double rate, uint64_t seed) {
  const auto n = static_cast<double>(traffic.size());
  Rng base(4244);
  std::vector<double> due(traffic.size());
  for (double& t : due) t = base.uniform(0.0, n / rate);
  std::sort(due.begin(), due.end());
  Rng jitter(derive_seed(seed, 1));
  for (size_t i = 0; i < traffic.size(); ++i) {
    traffic[i].due = std::max(0.0, due[i] + jitter.uniform(-0.25, 0.25) / rate);
  }
  std::sort(traffic.begin(), traffic.end(),
            [](const Campaign& a, const Campaign& b) { return a.due < b.due; });
}

core::CopilotOptions copilot_options() {
  core::CopilotOptions o;
  o.max_decode_tokens = kMaxDecodeTokens;
  return o;
}

serve::CampaignServer::Options server_options() {
  serve::CampaignServer::Options o;
  o.workers = std::max(8, 2 * par::hardware_threads());
  return o;
}

/// A campaign's spans from the server's own timestamps: the campaign from
/// `begin_ns` (its due time in the open loop, its submission in a burst) to
/// its resolution, the generator's lag from the due time to the submission
/// at `sent_ns`, then queue wait and run time.
void add_campaign_spans(Tracer& tr, int64_t parent, int64_t request, int64_t begin_ns,
                        int64_t sent_ns, const serve::CampaignResult& r) {
  const auto ns = [&](double s_) { return sent_ns + static_cast<int64_t>(s_ * 1e9); };
  const int64_t root = tr.add("serve.campaign", "serve", begin_ns, ns(r.total_seconds),
                              parent, request);
  if (sent_ns > begin_ns) tr.add("bench.generator_lag", "bench", begin_ns, sent_ns, root, request);
  tr.add("serve.queue_wait", "serve", sent_ns, ns(r.queue_seconds), root, request);
  tr.add("serve.run", "serve", ns(r.queue_seconds), ns(r.total_seconds), root, request);
}

std::unique_ptr<serve::CampaignServer> start_server(const device::Technology& tech,
                                                    const Setup& s) {
  auto server = std::make_unique<serve::CampaignServer>(server_options());
  for (const auto& m : s.models) {
    server->register_topology(m.name, m.topology, tech, m.model, s.luts);
  }
  return server;
}

struct Pass {
  std::vector<serve::CampaignResult> results;
  std::vector<bool> admitted;
  std::vector<OpenLoopSample> samples;
  serve::CampaignServer::Stats stats;
  uint64_t served = 0;
  double success_rate = 0.0;       ///< campaigns that met their target
  double sims_per_campaign = 0.0;  ///< Stage-IV verification simulations
  OpenLoopSummary summary;
  std::vector<double> latencies;  ///< misses charged the whole window
  double run_seconds = 0.0;       ///< summed pickup -> resolution of the served

  /// Served campaigns per second of campaign run time: the rate one worker
  /// serves this traffic at.  A slower serving path lowers it whatever the
  /// offered rate, which the schedule fixes.
  double service_rate() const {
    return run_seconds > 0.0 ? static_cast<double>(served) / run_seconds : 0.0;
  }
};

Pass run_pass(const device::Technology& tech, const Setup& s,
              const std::vector<Campaign>& traffic, Tracer& tr) {
  const auto server_ptr = start_server(tech, s);
  serve::CampaignServer& server = *server_ptr;

  const size_t n = traffic.size();
  std::vector<Clock::time_point> sent(n);
  std::vector<std::shared_ptr<serve::CampaignServer::Job>> jobs(n);
  Tracer::Scope window(tr, "campaign_open.window", "bench");
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(traffic[i].due));
      if (tr.enabled()) {
        tr.add("bench.await_arrival", "idle", tr.now_ns(), tr.to_ns(due), window.id());
      }
      std::this_thread::sleep_until(due);
      sent[i] = Clock::now();
      try {
        jobs[i] = server.submit({s.models[traffic[i].model].name, traffic[i].target,
                                 copilot_options()});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign %zu refused: %s\n", i, e.what());
      }
    }
  });
  generator.join();

  Pass p;
  p.results.resize(n);
  p.admitted.resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.admitted[i] = jobs[i] != nullptr;
    if (jobs[i]) p.results[i] = jobs[i]->wait();
    const double sent_at = seconds_between(start, sent[i]);
    p.samples.push_back({traffic[i].due, sent_at, p.results[i].total_seconds});
    if (p.admitted[i] && p.results[i].status == serve::CampaignStatus::Served) ++p.served;
  }
  p.stats = server.stats();
  server.shutdown();

  p.summary = summarize_open_loop(p.samples);
  for (size_t i = 0; i < n; ++i) {
    const bool hit = p.admitted[i] && p.results[i].status == serve::CampaignStatus::Served;
    p.latencies.push_back(hit ? p.samples[i].latency() : p.summary.window);
    if (hit) p.run_seconds += p.results[i].total_seconds - p.results[i].queue_seconds;
    p.success_rate += p.results[i].outcome.success ? 1.0 : 0.0;
    p.sims_per_campaign += p.results[i].outcome.spice_simulations;
  }
  p.success_rate /= static_cast<double>(n);
  p.sims_per_campaign /= static_cast<double>(n);

  if (tr.enabled()) {
    const int64_t origin = tr.to_ns(start);
    const auto ns = [&](double s_) { return origin + static_cast<int64_t>(s_ * 1e9); };
    for (size_t i = 0; i < n; ++i) {
      add_campaign_spans(tr, window.id(), static_cast<int64_t>(i), ns(p.samples[i].scheduled),
                         tr.to_ns(sent[i]), p.results[i]);
    }
  }
  return p;
}

bool same_outcome(const core::SizingOutcome& a, const core::SizingOutcome& b) {
  return a.success == b.success && a.iterations == b.iterations &&
         a.spice_simulations == b.spice_simulations && a.widths == b.widths &&
         a.predicted == b.predicted && a.target.gain_db == b.target.gain_db &&
         a.target.bw_hz == b.target.bw_hz && a.target.ugf_hz == b.target.ugf_hz &&
         a.achieved.gain_db == b.achieved.gain_db &&
         a.achieved.bw_hz == b.achieved.bw_hz && a.achieved.ugf_hz == b.achieved.ugf_hz;
}

struct Bursts {
  std::vector<double> rates;  ///< campaigns per second, per burst
  uint64_t campaigns = 0, served = 0;
  uint64_t mismatched = 0;  ///< served outcomes unlike the open loop's
};

/// Closed bursts: the first kBurst campaigns of the mix, submitted all at
/// once, again and again until `budget` seconds are spent (at least
/// kMinBursts).  A burst's rate is kBurst over the time from its first
/// submission to its last resolution — the server's capacity.  Outside that
/// time, every served outcome is compared with the same campaign's outcome
/// in the open loop `p`, bit for bit.
Bursts run_bursts(const device::Technology& tech, const Setup& s,
                  const std::vector<Campaign>& traffic, const Pass& p, double budget,
                  Tracer& tr) {
  Tracer::Scope phase(tr, "campaign_open.bursts", "bench");
  std::vector<const Campaign*> burst(kBurst);
  std::vector<const core::SizingOutcome*> open_loop(kBurst);
  for (size_t i = 0; i < traffic.size(); ++i) {
    if (traffic[i].id >= static_cast<size_t>(kBurst)) continue;
    burst[traffic[i].id] = &traffic[i];
    open_loop[traffic[i].id] = &p.results[i].outcome;
  }
  const auto server = start_server(tech, s);
  Bursts b;
  auto request = static_cast<int64_t>(traffic.size());
  const auto t0 = Clock::now();
  double burst_seconds = 0.0;
  do {
    Tracer::Scope scope(tr, "campaign_open.burst", "bench");
    std::vector<Clock::time_point> sent(kBurst);
    std::vector<std::shared_ptr<serve::CampaignServer::Job>> jobs(kBurst);
    for (size_t i = 0; i < jobs.size(); ++i) {
      sent[i] = Clock::now();
      jobs[i] = server->submit({s.models[burst[i]->model].name, burst[i]->target,
                                copilot_options()});
    }
    for (const auto& job : jobs) job->wait();
    burst_seconds = seconds_between(sent.front(), Clock::now());
    b.rates.push_back(static_cast<double>(kBurst) / burst_seconds);

    for (size_t i = 0; i < jobs.size(); ++i) {
      const serve::CampaignResult& r = jobs[i]->wait();
      ++b.campaigns;
      if (r.status == serve::CampaignStatus::Served) {
        ++b.served;
        if (!same_outcome(r.outcome, *open_loop[i])) ++b.mismatched;
      }
      if (tr.enabled()) {
        const int64_t at = tr.to_ns(sent[i]);
        add_campaign_spans(tr, scope.id(), request, at, at, r);
      }
      ++request;
    }
  } while (seconds_between(t0, Clock::now()) + burst_seconds <= budget ||
           b.rates.size() < static_cast<size_t>(kMinBursts));
  server->shutdown();
  return b;
}

/// Exactly-once resolution, no failures, and a fixed sample of campaigns
/// bit-identical to the serial copilot (everything except `seconds`).
void check_pass(const device::Technology& tech, const Setup& s,
                const std::vector<Campaign>& traffic, const Pass& p, const Bursts& b,
                Tracer& tr, Report& report) {
  Tracer::Scope phase(tr, "campaign_open.checks", "bench");
  const size_t n = traffic.size();
  const auto admitted = static_cast<uint64_t>(std::count(p.admitted.begin(), p.admitted.end(), true));
  report.check(p.stats.submitted == admitted &&
                   p.stats.served + p.stats.failed + p.stats.cancelled == p.stats.submitted,
               "every campaign resolves exactly once");
  report.check(p.served == n, "every campaign is served");
  report.check(b.served == b.campaigns, "every burst campaign is served");
  report.check(b.mismatched == 0, "every burst campaign matches its open-loop outcome");

  std::vector<std::unique_ptr<core::SizingCopilot>> copilots;
  for (const auto& m : s.models) {
    copilots.push_back(std::make_unique<core::SizingCopilot>(m.topology, tech, *m.builder,
                                                             *m.model, *s.luts));
  }
  for (int k = 0; k < kReferenceSample; ++k) {
    const size_t i = static_cast<size_t>(k) * n / kReferenceSample;
    core::SizingOutcome ref;
    {
      Tracer::Scope span(tr, "core::SizingCopilot::size", "core", static_cast<int64_t>(i));
      ref = copilots[traffic[i].model]->size(traffic[i].target, copilot_options());
    }
    report.check(p.admitted[i] && same_outcome(p.results[i].outcome, ref),
                 "campaign " + std::to_string(i) + " matches the serial copilot");
  }
}

/// Stage III timed on every campaign's final prediction.
double widths_from_params_us(const device::Technology& tech, const Setup& s,
                             const std::vector<Campaign>& traffic, const Pass& p,
                             Tracer& tr) {
  std::vector<double> us;
  for (size_t i = 0; i < traffic.size(); ++i) {
    if (!p.admitted[i]) continue;
    const ServedModel& m = s.models[traffic[i].model];
    Tracer::Scope span(tr, "core::widths_from_params", "lut", static_cast<int64_t>(i));
    const auto t0 = Clock::now();
    (void)core::widths_from_params(m.topology, tech, *s.luts,
                                   p.results[i].outcome.predicted, m.topology.widths());
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return us.empty() ? 0.0 : median(us);
}

void report_end_to_end(const Pass& p, const Bursts& b, Report& report) {
  const double capacity = median(b.rates);
  report.metric("throughput_per_s", capacity, "1/s");
  report.metric("throughput_alt_per_s", p.service_rate(), "1/s");
  report.metric("serve.campaign_latency_s.p50", percentile(p.latencies, 50.0), "s");
  report.metric("serve.campaign_latency_s.p90", percentile(p.latencies, 90.0), "s");
  // throughput_per_s under its own name, then the paper's quality figures.
  report.metric("campaigns_per_s", capacity, "1/s");
  report.metric("campaign_success_rate", p.success_rate, "ratio");
  report.metric("spice_sims_per_campaign", p.sims_per_campaign, "count");
  const auto tail = tail_percentile(p.latencies.size());
  std::printf("campaign latency: %zu samples; highest percentile with >= 10 beyond: p%g\n",
              p.latencies.size(), tail ? *tail : 0.0);
  std::printf("open loop: offered %.3g/s (%.2f of burst capacity), served %.4g/s over %.4g s\n",
              kOfferedRate, kOfferedRate / capacity,
              static_cast<double>(p.served) / p.summary.window, p.summary.window);
  print_series("burst campaigns/s", b.rates);
}

/// `served_traced`: campaigns served while the counters ran (the open loop
/// and the traced bursts), the denominator of the per-campaign stage times.
void report_layers(const Pass& p, uint64_t served_traced, const LayerCounters& counters,
                   Report& report) {
  std::vector<double> queue, run, iterations;
  for (size_t i = 0; i < p.results.size(); ++i) {
    if (!p.admitted[i]) continue;
    const serve::CampaignResult& r = p.results[i];
    queue.push_back(r.queue_seconds);
    run.push_back(r.total_seconds - r.queue_seconds);
    iterations.push_back(r.outcome.iterations);
  }
  const double served = std::max<double>(1.0, static_cast<double>(served_traced));
  report.metric("serve.queue_wait_s.p50", percentile(queue, 50.0), "s");
  report.metric("serve.queue_wait_s.p90", percentile(queue, 90.0), "s");
  report.metric("serve.run_s.p50", percentile(run, 50.0), "s");
  report.metric("serve.peak_queue_depth", static_cast<double>(p.stats.peak_queue_depth), "count");
  report.metric("serve.retried", static_cast<double>(p.stats.retried), "count");
  report.metric("serve.failed", static_cast<double>(p.stats.failed), "count");
  report.metric("serve.generator_lag_s.max", p.summary.max_lateness, "s");
  report.metric("core.stage2_s.per_campaign",
                counters.seconds("core.copilot.stage2_predict") / served, "s");
  report.metric("core.stage4_s.per_campaign",
                counters.seconds("core.copilot.stage4_verify") / served, "s");
  report.metric("core.iterations_per_campaign", mean(iterations), "count");
  report.metric("core.success_rate", p.success_rate, "ratio");
  report.metric("core.spice_sims_per_campaign", p.sims_per_campaign, "count");
  report.metric("ml.scheduler.occupancy", p.stats.decode.mean_batch_occupancy(), "count");
  report.metric("ml.scheduler.rounds", static_cast<double>(p.stats.decode.rounds), "count");
  report.metric("ml.scheduler.session_steps",
                static_cast<double>(p.stats.decode.session_steps), "count");
  counters.publish_common(report);
}

}  // namespace

void run_campaign_open(const RunOptions& opt, Report& report) {
  const device::Technology tech = device::Technology::default65nm();
  Tracer tracer(opt.trace);
  const int64_t wall_start = tracer.now_ns();

  Setup setup;
  if (opt.trace) {
    setup = build_setup(tech, tracer);
  } else {
    timed_setups(report, kSetupRepeats, [&] { setup = build_setup(tech, tracer); });
  }
  std::vector<Campaign> traffic = make_mix(setup);
  schedule(traffic, kOfferedRate, opt.seed);
  std::printf("campaign_open: %zu campaigns offered at %.3g/s to %d workers, "
              "then bursts of %d\n",
              traffic.size(), kOfferedRate, server_options().workers, kBurst);

  // A traced run splits the burst time: traced bursts here, untraced ones
  // after the trace closes, for the tracing overhead.
  const double burst_budget = kBurstShare * opt.seconds * (opt.trace ? 0.5 : 1.0);
  LayerCounters counters;
  if (opt.trace) counters.begin();
  const Pass pass = run_pass(tech, setup, traffic, tracer);
  const Bursts bursts = run_bursts(tech, setup, traffic, pass, burst_budget, tracer);
  if (opt.trace) counters.end();

  const uint64_t n = traffic.size();
  report.ops("campaigns", n + bursts.campaigns, pass.served + bursts.served,
             n + bursts.campaigns - pass.served - bursts.served);
  report_end_to_end(pass, bursts, report);
  check_pass(tech, setup, traffic, pass, bursts, tracer, report);
  if (!opt.trace) return;

  report.metric("lut.widths_from_params_us",
                widths_from_params_us(tech, setup, traffic, pass, tracer), "us");
  report.metric("lut.build_s", setup.lut_build_s, "s");
  report_layers(pass, pass.served + bursts.served, counters, report);
  finish_trace(tracer, wall_start, tracer.now_ns(), opt, report);

  tracer.set_enabled(false);
  const Bursts untraced = run_bursts(tech, setup, traffic, pass, burst_budget, tracer);
  report.check(untraced.served == untraced.campaigns && untraced.mismatched == 0,
               "every untraced burst campaign matches its open-loop outcome");
  report_overhead(1.0 / median(untraced.rates), 1.0 / median(bursts.rates), report);
}

}  // namespace perfbench
