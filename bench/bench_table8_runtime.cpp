// Table VIII — runtime analysis of training and inference.
//
// Per topology: one-time training duration, single-iteration vs
// multi-iteration success over unseen targets, average wall time, and the
// average number of verification simulations (the paper's headline: >90% of
// designs sized with one simulation).
//
// Also measures the decode engine itself: greedy tokens/sec through the
// autograd-free KV-cache InferenceEngine (the production path) vs the
// Var-based Transformer::greedy_decode (the training/reference path), on
// identical requests.  The two must emit identical tokens; the bench exits
// nonzero if they diverge or if the cached path falls below a noise-tolerant
// 2x speedup floor, which is what the CI smoke step asserts.
// OTA_TABLE8_SMOKE=1 runs only this comparison (one topology, no sizing
// campaign).
#include <algorithm>
#include <chrono>
#include <cstring>

#include "common.hpp"
#include "ml/decode_scheduler.hpp"
#include "par/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Decode throughput of one path over a fixed request list; returns
/// tokens/sec and appends every emitted token stream for cross-checking.
template <typename DecodeFn>
double tokens_per_second(const std::vector<std::vector<ota::nlp::TokenId>>& srcs,
                         DecodeFn decode,
                         std::vector<std::vector<ota::nlp::TokenId>>& outs) {
  const auto t0 = Clock::now();
  long tokens = 0;
  for (const auto& src : srcs) {
    outs.push_back(decode(src));
    tokens += static_cast<long>(outs.back().size());
  }
  const double dt = seconds_since(t0);
  return dt > 0.0 ? static_cast<double>(tokens) / dt : 0.0;
}

/// Cached-vs-naive decode comparison on one topology's trained model.
/// Returns 0 on success, 1 when tokens diverge or the cached path is slower.
int decode_engine_comparison(ota::benchsupport::TopologyContext& ctx,
                             int requests, int max_tokens) {
  using namespace ota;
  const auto& tokenizer = ctx.model.tokenizer();
  const ml::Transformer& reference = ctx.model.transformer();
  const ml::InferenceEngine& engine = ctx.model.engine();

  std::vector<std::vector<nlp::TokenId>> srcs;
  for (int i = 0; i < requests && i < static_cast<int>(ctx.val.size()); ++i) {
    srcs.push_back(tokenizer.encode(
        ctx.builder->encoder_text(ctx.val[static_cast<size_t>(i)].specs)));
  }

  std::vector<std::vector<nlp::TokenId>> naive_out, cached_out;
  const double naive_tps = tokens_per_second(
      srcs,
      [&](const std::vector<nlp::TokenId>& s) {
        return reference.greedy_decode(s, max_tokens);
      },
      naive_out);
  const double cached_tps = tokens_per_second(
      srcs,
      [&](const std::vector<nlp::TokenId>& s) {
        return engine.greedy_decode(s, max_tokens);
      },
      cached_out);

  // Batched decode across the whole request list (the campaign-sweep shape):
  // one burst of submissions to a scheduler on the global pool.
  const auto t0 = Clock::now();
  std::vector<std::vector<nlp::TokenId>> batch_out;
  {
    ml::DecodeScheduler scheduler(engine);
    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
    for (const auto& src : srcs) {
      tickets.push_back(scheduler.submit(src, max_tokens));
    }
    for (const auto& t : tickets) batch_out.push_back(t->wait());
  }
  const double batch_dt = seconds_since(t0);
  long batch_tokens = 0;
  for (const auto& o : batch_out) batch_tokens += static_cast<long>(o.size());
  const double batch_tps =
      batch_dt > 0.0 ? static_cast<double>(batch_tokens) / batch_dt : 0.0;

  std::printf("\nDecode engine (%zu requests, <=%d tokens each):\n",
              srcs.size(), max_tokens);
  std::printf("  naive  (Var graph, full-prefix recompute): %10.1f tok/s\n",
              naive_tps);
  std::printf("  cached (KV cache, fused QKV, no autograd): %10.1f tok/s  (%.1fx)\n",
              cached_tps, naive_tps > 0.0 ? cached_tps / naive_tps : 0.0);
  std::printf("  batched over %d workers:                   %10.1f tok/s\n",
              std::min(par::resolve_threads(), static_cast<int>(srcs.size())),
              batch_tps);

  // A comparison that decoded nothing asserts nothing — refuse to pass.
  long naive_tokens = 0;
  for (const auto& o : naive_out) naive_tokens += static_cast<long>(o.size());
  if (srcs.empty() || naive_tokens == 0) {
    std::fprintf(stderr, "FAIL: decode comparison measured zero tokens "
                 "(%zu requests)\n", srcs.size());
    return 1;
  }
  if (cached_out != naive_out || batch_out != naive_out) {
    std::fprintf(stderr, "FAIL: engine tokens diverge from the reference path\n");
    return 1;
  }
  // The refactor's headline property is a >=5x speedup (observed: ~40-75x).
  // The exit-code gate sits at 2x: far above anything a working Var-graph
  // path can reach, far below what the KV cache delivers, and slack enough
  // that a scheduler stall during the short cached measurement window on a
  // shared CI runner cannot flake the build.
  constexpr double kRequiredSpeedup = 2.0;
  if (cached_tps < kRequiredSpeedup * naive_tps) {
    std::fprintf(stderr,
                 "FAIL: cached decode (%.1f tok/s) below %.0fx the naive path "
                 "(%.1f tok/s)\n",
                 cached_tps, kRequiredSpeedup, naive_tps);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  const Scale sc = Scale::from_env();
  const char* smoke_env = std::getenv("OTA_TABLE8_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;

  std::printf("=== Table VIII: runtime analysis (scale '%s', %d campaign "
              "workers)%s ===\n",
              sc.name.c_str(), par::resolve_threads(),
              smoke ? " [smoke: decode comparison only]" : "");

  if (smoke) {
    auto& ctx = context("5T-OTA");
    return decode_engine_comparison(ctx, /*requests=*/4, /*max_tokens=*/200);
  }

  std::printf("%-8s %-10s | %-14s %-9s | %-14s %-9s %-7s | %-8s %-6s\n",
              "Topology", "training", "1-iter solved", "avg time",
              "multi solved", "avg time", "iters", "avg sims", "fail");

  for (const char* name : {"5T-OTA", "CM-OTA", "2S-OTA"}) {
    auto& ctx = context(name);
    core::SizingCopilot copilot(ctx.topology, tech(), *ctx.builder, ctx.model,
                                luts());
    const auto targets =
        core::targets_from_designs(ctx.val, sc.sizing_targets, 0.05, 1801);
    const core::RuntimeStats st = core::runtime_stats(copilot, targets);
    std::printf("%-8s %9.1fs | %6d/%-7d %8.2fs | %7d/%-6d %8.2fs %-7.1f | %-8.2f %-6d\n",
                name, ctx.training_seconds, st.single_iteration, st.total,
                st.avg_single_seconds, st.multi_iteration, st.total,
                st.avg_multi_seconds, st.avg_multi_iterations,
                st.avg_sims_per_design, st.failures);
  }

  int rc = decode_engine_comparison(context("5T-OTA"), /*requests=*/8,
                                    /*max_tokens=*/800);

  std::printf("\n(paper Table VIII: 8.5h/22h/11h training on an L40S GPU;\n"
              " 95/98/90 of 100 designs in one iteration at 36-46s each,\n"
              " remainder in 3-5 iterations; our absolute times reflect the\n"
              " CPU-scale model and minispice substitution)\n");
  return rc;
}
