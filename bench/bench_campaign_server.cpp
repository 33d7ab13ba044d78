// Sizing-as-a-service throughput: the campaign server vs one-at-a-time.
//
// Runs the same batch of sizing campaigns over one trained 5T-OTA model —
// first serially through SizingCopilot::size (the paper's
// one-campaign-at-a-time loop), then concurrently through serve::CampaignServer,
// where every live campaign's Stage-II decodes coalesce in the continuous
// -batching DecodeScheduler.  Each path runs three times and keeps its best
// time.  Reported: campaigns/sec for both paths, p50/p99 campaign latency
// under load (last server pass), and the mean decode-batch occupancy.
//
// Four gates, enforced through the exit code:
//
//  * bit-identity (always) — every server campaign outcome must match the
//    serial copilot's bit-for-bit (everything except wall-clock seconds);
//  * occupancy (always, incl. smoke) — with >= 8 concurrent campaigns the
//    mean decode batch must exceed 1.5 sessions/round: outstanding requests
//    queue behind the engine regardless of core count, so coalescing is
//    observable even on a 1-core CI runner;
//  * throughput (>= 4 hardware threads, not in smoke) — the server must
//    clear 2x the serial campaigns/sec;
//  * overload (always, incl. smoke) — a concurrent burst of 4x
//    max_queue_depth submissions against a bounded queue, with every 5th
//    admitted job cancelled, must account for every attempt exactly once
//    (rejected + served + cancelled == attempts, failed == 0) while the
//    queue never exceeds its cap (peak_queue_depth <= max_queue_depth).
//
// OTA_CAMPAIGN_SMOKE=1 shrinks the dataset/model and campaign count; the
// Release CI job runs that mode.  Results are written as JSON (path from
// OTA_BENCH_JSON, default BENCH_campaign.json) for scripts/bench_snapshot.sh.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "par/thread_pool.hpp"
#include "serve/campaign_server.hpp"

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

bool same_outcome(const ota::core::SizingOutcome& a,
                  const ota::core::SizingOutcome& b) {
  return a.success == b.success && a.iterations == b.iterations &&
         a.spice_simulations == b.spice_simulations && a.widths == b.widths &&
         a.predicted == b.predicted &&
         a.achieved.gain_db == b.achieved.gain_db &&
         a.achieved.bw_hz == b.achieved.bw_hz &&
         a.achieved.ugf_hz == b.achieved.ugf_hz;
}

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  const char* smoke_env = std::getenv("OTA_CAMPAIGN_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;
  const Scale sc = Scale::from_env();

  std::printf("=== Campaign server: continuous decode batching across "
              "concurrent sizing campaigns (scale '%s'%s) ===\n",
              sc.name.c_str(), smoke ? ", smoke" : "");

  // One deterministic dataset + model shared by both paths.
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
  auto model = std::make_shared<core::SizingModel>();
  std::fprintf(stderr, "[bench] training the shared 5T-OTA model...\n");
  model->train(pairs, topt);
  const auto lut_set =
      std::make_shared<const core::LutSet>(benchsupport::luts());

  const int n_campaigns = smoke ? 16 : 32;
  const int n_workers = 8;
  const auto targets = core::targets_from_designs(ds.designs, n_campaigns, 0.06, 17);
  core::CopilotOptions copt;
  copt.max_iterations = smoke ? 3 : 6;
  copt.max_decode_tokens = smoke ? 128 : 400;

  // Each path runs kPasses times and reports its best wall time, so the
  // server/serial speedup compares the least disturbed pass of each.
  constexpr int kPasses = 3;

  // Path 1: the serial reference — one campaign at a time, the copilot's
  // own loop, nothing shared.  Also the bit-identity baseline.
  std::fprintf(stderr, "[bench] serial pass (%d campaigns, best of %d)...\n",
               n_campaigns, kPasses);
  std::vector<core::SizingOutcome> reference;
  const double serial_seconds = best_seconds(kPasses, [&] {
    reference.clear();
    core::SizingCopilot copilot(topo, tech(), builder, *model, *lut_set);
    for (const auto& t : targets) reference.push_back(copilot.size(t, copt));
  });

  // Path 2: the campaign server — all campaigns submitted up front, their
  // Stage-II decodes coalescing in the shared scheduler.
  std::fprintf(stderr, "[bench] server pass (%d workers)...\n", n_workers);
  serve::CampaignServer::Options sopt;
  sopt.workers = n_workers;
  serve::CampaignServer server(sopt);
  server.register_topology("5T-OTA", topo, tech(), model, lut_set);

  bool bit_identical = true;
  std::vector<double> latencies;
  const double server_seconds = best_seconds(kPasses, [&] {
    std::vector<std::shared_ptr<serve::CampaignServer::Job>> jobs;
    for (const auto& t : targets) {
      jobs.push_back(server.submit({"5T-OTA", t, copt}));
    }
    latencies.clear();
    for (size_t i = 0; i < jobs.size(); ++i) {
      const serve::CampaignResult& res = jobs[i]->wait();
      if (res.status != serve::CampaignStatus::Served ||
          !same_outcome(res.outcome, reference[i])) {
        bit_identical = false;
        std::fprintf(stderr, "DIVERGED: campaign %zu (%s)\n", i,
                     res.status == serve::CampaignStatus::Served
                         ? "outcome mismatch" : res.error.c_str());
      }
      latencies.push_back(res.total_seconds);
    }
  });
  const auto stats = server.stats();
  server.shutdown();

  // Path 3: overload — admission control under a burst.  A fresh bounded
  // server (a full queue rejects) takes 4x its queue depth from 4 concurrent
  // submitter threads; every 5th admitted job is cancelled.  The server must
  // bound the queue (never deeper than the cap) and account for every
  // attempt exactly once: rejected at the door, served, or cancelled.
  const int overload_depth = smoke ? 4 : 8;
  const int overload_attempts = 4 * overload_depth;
  std::fprintf(stderr, "[bench] overload pass (%d attempts, queue cap %d)...\n",
               overload_attempts, overload_depth);
  serve::CampaignServer::Options oopt;
  oopt.workers = 4;
  oopt.max_queue_depth = overload_depth;
  serve::CampaignServer overload_server(oopt);
  overload_server.register_topology("5T-OTA", topo, tech(), model, lut_set,
                                    {.max_batch = 4});

  core::CopilotOptions cheap;  // short campaigns: the burst is the subject
  cheap.max_iterations = 2;
  cheap.max_decode_tokens = 64;

  std::atomic<int> overload_rejected{0};
  std::mutex jobs_mu;
  std::vector<std::shared_ptr<serve::CampaignServer::Job>> overload_jobs;
  {
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&, s] {
        for (int i = s; i < overload_attempts; i += 4) {
          try {
            auto job = overload_server.submit(
                {"5T-OTA", targets[static_cast<size_t>(i) % targets.size()],
                 cheap});
            std::lock_guard<std::mutex> lk(jobs_mu);
            overload_jobs.push_back(std::move(job));
          } catch (const ServerOverloaded&) {
            overload_rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : submitters) t.join();
  }
  for (size_t i = 0; i < overload_jobs.size(); i += 5) overload_jobs[i]->cancel();

  uint64_t overload_served = 0, overload_cancelled = 0, overload_failed = 0;
  for (const auto& job : overload_jobs) {
    switch (job->wait().status) {
      case serve::CampaignStatus::Served: ++overload_served; break;
      case serve::CampaignStatus::Cancelled: ++overload_cancelled; break;
      case serve::CampaignStatus::Failed: ++overload_failed; break;
    }
  }
  const auto ostats = overload_server.stats();
  overload_server.shutdown();
  const bool overload_accounted =
      overload_failed == 0 &&
      static_cast<size_t>(overload_rejected.load()) + overload_jobs.size() ==
          static_cast<size_t>(overload_attempts) &&
      overload_served + overload_cancelled == overload_jobs.size() &&
      ostats.rejected == static_cast<uint64_t>(overload_rejected.load());
  const bool overload_bounded =
      ostats.peak_queue_depth <= static_cast<uint64_t>(overload_depth);

  const double serial_rate =
      serial_seconds > 0.0 ? n_campaigns / serial_seconds : 0.0;
  const double server_rate =
      server_seconds > 0.0 ? n_campaigns / server_seconds : 0.0;
  const double speedup = serial_rate > 0.0 ? server_rate / serial_rate : 0.0;
  const double occupancy = stats.decode.mean_batch_occupancy();
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  std::printf("%12s %10s %14s %9s\n", "path", "seconds", "campaigns/s", "speedup");
  std::printf("%12s %9.2fs %14.2f %9s\n", "serial", serial_seconds, serial_rate, "1.00x");
  std::printf("%12s %9.2fs %14.2f %8.2fx\n", "server", server_seconds,
              server_rate, speedup);
  std::printf("\ncampaign latency under load: p50 %.3fs  p99 %.3fs\n", p50, p99);
  std::printf("decode batching: occupancy %.2f sessions/round, peak batch %llu, "
              "%llu rounds, %llu decode requests\n",
              occupancy, static_cast<unsigned long long>(stats.decode.peak_batch),
              static_cast<unsigned long long>(stats.decode.rounds),
              static_cast<unsigned long long>(stats.decode.served));
  std::printf("results: %s\n", bit_identical ? "bit-identical to serial copilot"
                                             : "DIVERGED");
  std::printf("overload: %d attempts -> %d rejected, %llu served, "
              "%llu cancelled, %llu failed; peak queue %llu (cap %d)\n",
              overload_attempts, overload_rejected.load(),
              static_cast<unsigned long long>(overload_served),
              static_cast<unsigned long long>(overload_cancelled),
              static_cast<unsigned long long>(overload_failed),
              static_cast<unsigned long long>(ostats.peak_queue_depth),
              overload_depth);

  write_bench_json("BENCH_campaign.json",
                   JsonObject()
                       .str("bench", "campaign_server")
                       .str("scale", sc.name)
                       .boolean("smoke", smoke)
                       .num("campaigns", n_campaigns)
                       .num("workers", n_workers)
                       .num("serial_seconds", serial_seconds, "%.3f")
                       .num("server_seconds", server_seconds, "%.3f")
                       .num("campaigns_per_sec_serial", serial_rate, "%.3f")
                       .num("campaigns_per_sec_server", server_rate, "%.3f")
                       .num("speedup", speedup, "%.3f")
                       .num("latency_p50_s", p50, "%.4f")
                       .num("latency_p99_s", p99, "%.4f")
                       .num("decode_occupancy", occupancy, "%.3f")
                       .num("decode_peak_batch", stats.decode.peak_batch)
                       .num("overload_attempts", overload_attempts)
                       .num("overload_rejected", overload_rejected.load())
                       .num("overload_served", overload_served)
                       .num("overload_cancelled", overload_cancelled)
                       .num("overload_peak_queue_depth",
                            ostats.peak_queue_depth)
                       .num("overload_queue_cap", overload_depth)
                       .boolean("bit_identical", bit_identical));

  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: server campaigns diverged from the serial "
                 "copilot path\n");
    return 1;
  }
  if (!overload_accounted) {
    std::fprintf(stderr, "FAIL: overload burst not accounted exactly once "
                 "(%d attempts vs %d rejected + %zu admitted; %llu served + "
                 "%llu cancelled + %llu failed)\n",
                 overload_attempts, overload_rejected.load(),
                 overload_jobs.size(),
                 static_cast<unsigned long long>(overload_served),
                 static_cast<unsigned long long>(overload_cancelled),
                 static_cast<unsigned long long>(overload_failed));
    return 1;
  }
  if (!overload_bounded) {
    std::fprintf(stderr, "FAIL: queue grew to %llu, past its cap of %d\n",
                 static_cast<unsigned long long>(ostats.peak_queue_depth),
                 overload_depth);
    return 1;
  }
  // The occupancy gate holds on any host: with 8 workers submitting and one
  // engine serving, outstanding decodes pile up behind the scheduler and
  // must share rounds — queueing, not parallel hardware, is what's measured.
  constexpr double kRequiredOccupancy = 1.5;
  if (n_campaigns >= 8 && occupancy <= kRequiredOccupancy) {
    std::fprintf(stderr, "FAIL: mean decode batch occupancy %.2f below the "
                 "%.1f floor with %d concurrent campaigns\n",
                 occupancy, kRequiredOccupancy, n_campaigns);
    return 1;
  }
  if (!smoke && par::hardware_threads() >= 4) {
    constexpr double kRequiredSpeedup = 2.0;
    if (speedup < kRequiredSpeedup) {
      std::fprintf(stderr, "FAIL: server throughput %.2fx below the %.0fx "
                   "floor over one-at-a-time\n", speedup, kRequiredSpeedup);
      return 1;
    }
  } else if (!smoke) {
    std::printf("(only %d hardware thread(s): throughput floor not enforced)\n",
                par::hardware_threads());
  }
  return 0;
}
