// Inference precision tiers: double reference vs the float32 SIMD tier.
//
// Trains one deterministic 5T-OTA sizing model, then decodes the same probe
// batch through both of the engine's numeric tiers and reports tokens/sec
// for each.  The float32 tier exists to halve decode memory traffic (same
// fused weight layout, half the bytes per element, SIMD row kernels); this
// bench is its gatekeeper:
//
//  * agreement (always, incl. smoke) — the float32 tier's token streams
//    must be IDENTICAL, token for token, to the double tier's on the
//    trained model.  Any divergence is a hard failure: the fast tier is
//    only allowed to exist while it is observationally equivalent.
//  * determinism (always, incl. smoke) — each tier decoded twice must be
//    bit-identical run to run.
//  * speedup (not in smoke) — the float32 tier must clear 1.3x the double
//    tier's tokens/sec on this host.  Smoke mode (OTA_INFER_TIER_SMOKE=1,
//    the Release CI job) still measures and reports the ratio but only
//    gates agreement/determinism: a tiny smoke model fits whole in cache,
//    so the memory-traffic half of the win is not representative there.
//
// Results are written as JSON (path from OTA_BENCH_JSON, default
// BENCH_infer.json) for scripts/bench_snapshot.sh.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "core/dataset.hpp"
#include "ml/infer.hpp"
#include "ml/precision.hpp"

namespace {

using Tokens = std::vector<std::vector<ota::nlp::TokenId>>;

/// Decodes every probe on the calling thread: builds the sessions, then
/// steps all of them as one group per round (Session::greedy_step_group)
/// until no row is live.  So ml.engine.group_steps counts the rounds, which
/// is the longest decode's step count on any host.  A DecodeScheduler could
/// not promise that count: how many requests its first admission takes
/// depends on when its thread wakes.
Tokens decode_probes(const ota::ml::InferenceEngine& engine, const Tokens& srcs,
                     int64_t max_tokens, ota::ml::Precision tier) {
  using Engine = ota::ml::InferenceEngine;
  std::vector<Engine::Session> sessions;
  sessions.reserve(srcs.size());  // the rows point into it
  for (const auto& src : srcs) sessions.emplace_back(engine, src, tier);
  Tokens out(srcs.size());
  std::vector<Engine::GreedyRow> rows;
  for (size_t i = 0; i < srcs.size(); ++i) {
    rows.emplace_back(&sessions[i], &out[i], max_tokens);
  }
  const auto live = [](const Engine::GreedyRow& r) { return r.live; };
  while (std::any_of(rows.begin(), rows.end(), live)) {
    Engine::Session::greedy_step_group(rows);
  }
  for (const Engine::GreedyRow& r : rows) {
    if (r.error) std::rethrow_exception(r.error);
  }
  return out;
}

/// Steps actually executed for one greedy decode: one per emitted token,
/// plus the step that produced EOS when the budget did not run out first.
int64_t steps_of(const Tokens& outs, int64_t budget) {
  int64_t steps = 0;
  for (const auto& o : outs) {
    const int64_t len = static_cast<int64_t>(o.size());
    steps += len < budget ? len + 1 : len;
  }
  return steps;
}

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  using Clock = std::chrono::steady_clock;
  const char* smoke_env = std::getenv("OTA_INFER_TIER_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;
  const Scale sc = Scale::from_env();

  std::printf("=== Inference tiers: double reference vs float32 SIMD "
              "(scale '%s'%s) ===\n",
              sc.name.c_str(), smoke ? ", smoke" : "");

  // One deterministic dataset + model; the probe targets come from the same
  // distribution the model trained on, so the decodes are realistic decoder
  // sequences, not noise.
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
  core::SizingModel model;
  std::fprintf(stderr, "[bench] training the 5T-OTA model...\n");
  model.train(pairs, topt);
  const ml::InferenceEngine& engine = model.engine();

  const int n_probes = smoke ? 8 : 16;
  const int64_t max_tokens = smoke ? 96 : 256;
  const auto targets = core::targets_from_designs(ds.designs, n_probes, 0.06, 17);
  Tokens srcs;
  srcs.reserve(targets.size());
  for (const auto& t : targets) {
    srcs.push_back(model.tokenizer().encode(builder.encoder_text(t)));
  }

  // Gate 1: token agreement.  The double pass is the reference; the float32
  // pass must reproduce its streams exactly.  Both decoded serially, so the
  // comparison is pure kernel numerics.  The double pass also counts its
  // stacked group steps: one per round, so the count is the longest
  // decode's step count.  A batch that stepped each request alone would
  // count decode_steps_per_pass instead.
  Tokens ref;
  uint64_t group_steps = 0;
  {
    const stats::ScopedStats scoped;
    ref = decode_probes(engine, srcs, max_tokens, ml::Precision::kDouble);
    group_steps = stats::snapshot()["ml.engine.group_steps"].count;
  }
  const Tokens f32 =
      decode_probes(engine, srcs, max_tokens, ml::Precision::kFloat32);
  bool agree = ref.size() == f32.size();
  size_t first_diverged = srcs.size();
  for (size_t i = 0; agree && i < ref.size(); ++i) {
    if (ref[i] != f32[i]) {
      agree = false;
      first_diverged = i;
    }
  }

  // Gate 2: run-to-run determinism of each tier.
  const bool deterministic =
      decode_probes(engine, srcs, max_tokens, ml::Precision::kDouble) == ref &&
      decode_probes(engine, srcs, max_tokens, ml::Precision::kFloat32) == f32;

  // Throughput: repeated serial passes over the batch; the agreement gate
  // means both tiers execute the same number of session steps, so the rate
  // ratio is a pure per-token cost ratio.
  const int64_t steps = steps_of(ref, max_tokens);
  const int repeats = smoke ? 2 : 5;
  const auto time_tier = [&](ml::Precision tier) {
    (void)decode_probes(engine, srcs, max_tokens, tier);  // warm-up
    const auto t0 = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      (void)decode_probes(engine, srcs, max_tokens, tier);
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double double_seconds = time_tier(ml::Precision::kDouble);
  const double f32_seconds = time_tier(ml::Precision::kFloat32);
  const double tokens_total = static_cast<double>(steps * repeats);
  const double double_rate =
      double_seconds > 0.0 ? tokens_total / double_seconds : 0.0;
  const double f32_rate = f32_seconds > 0.0 ? tokens_total / f32_seconds : 0.0;
  const double speedup = double_rate > 0.0 ? f32_rate / double_rate : 0.0;

  std::printf("%10s %10s %12s %9s\n", "tier", "seconds", "tokens/s", "speedup");
  std::printf("%10s %9.3fs %12.0f %9s\n", "double", double_seconds,
              double_rate, "1.00x");
  std::printf("%10s %9.3fs %12.0f %8.2fx\n", "float32", f32_seconds, f32_rate,
              speedup);
  std::printf("agreement: %s over %d probes (%lld decode steps/pass, "
              "%llu group steps)\n",
              agree ? "token-identical" : "DIVERGED", n_probes,
              static_cast<long long>(steps),
              static_cast<unsigned long long>(group_steps));
  std::printf("determinism: %s\n",
              deterministic ? "bit-identical run to run" : "NON-DETERMINISTIC");

  write_bench_json("BENCH_infer.json",
                   JsonObject()
                       .str("bench", "infer_tier")
                       .str("scale", sc.name)
                       .boolean("smoke", smoke)
                       .num("probes", n_probes)
                       .num("max_tokens", max_tokens)
                       .num("decode_steps_per_pass", steps)
                       .num("batch_group_steps", group_steps)
                       .num("repeats", repeats)
                       .num("double_seconds", double_seconds, "%.4f")
                       .num("f32_seconds", f32_seconds, "%.4f")
                       .num("double_tokens_per_sec", double_rate, "%.1f")
                       .num("f32_tokens_per_sec", f32_rate, "%.1f")
                       .num("f32_speedup", speedup, "%.3f")
                       .boolean("token_agreement", agree)
                       .boolean("deterministic", deterministic));

  if (!agree) {
    std::fprintf(stderr,
                 "FAIL: float32 tier diverged from the double reference "
                 "(first at probe %zu) — the fast tier may not ship while it "
                 "changes answers\n",
                 first_diverged);
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: a tier is not bit-identical run to run\n");
    return 1;
  }
  if (!smoke) {
    constexpr double kRequiredSpeedup = 1.3;
    if (speedup < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "FAIL: float32 tier %.2fx below the %.1fx tokens/sec floor "
                   "over the double tier\n",
                   speedup, kRequiredSpeedup);
      return 1;
    }
  }
  return 0;
}
