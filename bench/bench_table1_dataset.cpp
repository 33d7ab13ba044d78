// Table I — dataset information per topology.
//
// Regenerates the paper's dataset summary: the specification ranges actually
// covered by the legal designs, the number of DP-SFG forward paths and
// cycles, plus the rejection-sampling yield of the generation procedure.
// A trailing threads-vs-throughput sweep regenerates the 5T-OTA dataset at
// 1/2/4/8 worker threads (ota::par pool), reporting wall time, throughput,
// and the bit-identity of every run against the single-threaded reference.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "par/thread_pool.hpp"
#include "sfg/sequence.hpp"
#include "spice/dc.hpp"

int main() {
  using namespace ota;
  using namespace ota::benchsupport;

  std::printf("=== Table I: dataset information (scale '%s') ===\n",
              Scale::from_env().name.c_str());
  std::printf("%-8s %-9s %-14s %-16s %-16s %-8s %-7s %-8s\n", "Topology",
              "#designs", "Gain(dB)", "3dB BW (MHz)", "UGF (MHz)", "#fwd",
              "#cycles", "yield");

  for (const char* name : {"5T-OTA", "CM-OTA", "2S-OTA"}) {
    auto& ctx = context(name);
    const auto& designs = ctx.dataset.designs;

    double g0 = 1e9, g1 = -1e9, b0 = 1e18, b1 = -1e18, u0 = 1e18, u1 = -1e18;
    for (const auto& d : designs) {
      g0 = std::min(g0, d.specs.gain_db);
      g1 = std::max(g1, d.specs.gain_db);
      b0 = std::min(b0, d.specs.bw_hz);
      b1 = std::max(b1, d.specs.bw_hz);
      u0 = std::min(u0, d.specs.ugf_hz);
      u1 = std::max(u1, d.specs.ugf_hz);
    }

    const auto paths = sfg::collect_paths(ctx.builder->graph());
    char gain[32], bw[32], ugf[32];
    std::snprintf(gain, sizeof gain, "%.0f - %.0f", g0, g1);
    std::snprintf(bw, sizeof bw, "%.2f - %.1f", b0 / 1e6, b1 / 1e6);
    std::snprintf(ugf, sizeof ugf, "%.0f - %.0f", u0 / 1e6, u1 / 1e6);
    std::printf("%-8s %-9zu %-14s %-16s %-16s %-8zu %-7zu %6.1f%%\n", name,
                designs.size(), gain, bw, ugf, paths.forward.size(),
                paths.cycles.size(),
                100.0 * static_cast<double>(designs.size()) /
                    std::max(1, ctx.dataset.attempts));
  }
  std::printf("\n(paper Table I: 5T 18-23dB/7-54MHz/80-871MHz 9fwd 4cyc;\n"
              " CM 19-25dB/17.5-86MHz/57-1185MHz 26fwd 5cyc;\n"
              " 2S 28-54dB/0.01-0.32MHz/1.8-370MHz 2fwd 11cyc)\n");

  // --- generate_dataset threads-vs-throughput sweep (5T-OTA) ---
  const auto tech = device::Technology::default65nm();
  core::DataGenOptions gopt;
  gopt.target_designs = std::min(Scale::from_env().designs, 300);
  gopt.max_attempts = gopt.target_designs * 200;
  gopt.seed = 2024;

  std::printf("\n=== generate_dataset threads sweep (5T-OTA, %d designs; "
              "%d hardware threads) ===\n",
              gopt.target_designs, par::hardware_threads());
  std::printf("%-8s %-10s %-12s %-9s %-13s\n", "threads", "seconds",
              "designs/s", "speedup", "bit-identical");
  core::Dataset reference;
  double t1 = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    auto topo = circuit::make_5t_ota(tech);
    par::ThreadPool pool(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const core::Dataset ds = core::generate_dataset(
        topo, tech, core::SpecRange::for_topology("5T-OTA"), gopt, pool);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0).count();
    bool identical = true;
    if (threads == 1) {
      reference = ds;
      t1 = secs;
    } else {
      identical = ds.designs.size() == reference.designs.size() &&
                  ds.attempts == reference.attempts;
      for (size_t i = 0; identical && i < ds.designs.size(); ++i) {
        identical = ds.designs[i].widths == reference.designs[i].widths;
      }
    }
    std::printf("%-8d %-10.2f %-12.1f %-9.2f %-13s\n", threads, secs,
                static_cast<double>(ds.designs.size()) / std::max(secs, 1e-9),
                t1 / std::max(secs, 1e-9), identical ? "yes" : "NO");
  }
  return 0;
}
