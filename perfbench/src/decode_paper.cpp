// decode_paper: offline decode batches at the paper's model shape.
//
// A random-init transformer at 720/12/6/2048 (about 74M parameters) is
// compiled into an ml::InferenceEngine, and batches of kBatch concurrent
// requests with a fixed token budget run through ml::DecodeScheduler —
// first at the double tier, then at the f32 tier, alternating until the
// measurement time is spent.  Unlike the d_model-64 serving models, these
// weights do not fit in cache, so every decode step streams them from
// memory: this is where a batched weight sweep would show.  Random weights
// do not depend on the seed; the seed draws the request token streams.
#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "ml/decode_scheduler.hpp"
#include "ml/infer.hpp"
#include "ml/transformer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace ota;

constexpr int64_t kVocab = 640;    ///< about the BPE vocabulary of a sizing corpus
constexpr int kBatch = 16;         ///< concurrent requests per batch
constexpr int64_t kTokens = 12;    ///< token budget per request
/// Prompt length: short, so the scheduler's serial encode pass stays a
/// minority of a batch, and fixed, so every seed encodes the same work.
constexpr int64_t kPromptTokens = 12;
constexpr int kSetupRepeats = 3;
constexpr ml::Precision kTiers[] = {ml::Precision::kDouble, ml::Precision::kFloat32};

const char* tier_name(ml::Precision p) {
  return p == ml::Precision::kDouble ? "double" : "f32";
}

struct Setup {
  std::unique_ptr<ml::InferenceEngine> engine;
  /// One scheduler per tier, declared after the engine they run on.
  std::unique_ptr<ml::DecodeScheduler> schedulers[2];
  int64_t parameters = 0;
};

std::unique_ptr<Setup> build_setup(Tracer& tr) {
  Tracer::Scope phase(tr, "decode_paper.setup", "bench");
  auto s = std::make_unique<Setup>();
  ml::TransformerConfig cfg;
  cfg.vocab_size = kVocab;
  cfg.d_model = 720;
  cfg.n_heads = 12;
  cfg.n_layers = 6;
  cfg.d_ff = 2048;
  cfg.max_len = 128;
  cfg.seed = 2025;
  std::unique_ptr<ml::Transformer> model;
  {
    Tracer::Scope span(tr, "ml::Transformer", "ml");
    model = std::make_unique<ml::Transformer>(cfg);
  }
  s->parameters = model->parameter_count();
  {
    Tracer::Scope span(tr, "ml::InferenceEngine", "ml");
    s->engine = std::make_unique<ml::InferenceEngine>(*model);
  }
  model.reset();  // the engine keeps its own snapshot
  for (int t = 0; t < 2; ++t) {
    ml::DecodeScheduler::Options o;
    o.max_batch = kBatch;
    o.precision = kTiers[t];
    s->schedulers[t] = std::make_unique<ml::DecodeScheduler>(*s->engine, o);
  }
  return s;
}

/// kBatch seeded request token streams of kPromptTokens tokens each.
std::vector<std::vector<nlp::TokenId>> make_batch(Rng& rng) {
  std::vector<std::vector<nlp::TokenId>> out(kBatch);
  for (auto& src : out) {
    for (int64_t i = 0; i < kPromptTokens; ++i) {
      src.push_back(static_cast<nlp::TokenId>(rng.uniform_int(4, kVocab - 1)));
    }
  }
  return out;
}

struct Tier {
  uint64_t steps = 0, rounds = 0;
  uint64_t tickets = 0, served = 0;
  std::vector<double> batch_rates;  ///< session steps per second, per batch
  std::vector<double> latencies;    ///< per ticket, submit -> tokens
  std::vector<nlp::TokenId> probe_src, probe_out;  ///< last batch's first ticket
  /// Median over batches, so one batch slowed by a noisy neighbour does not
  /// move the figure.
  double tokens_per_s() const { return median(batch_rates); }
};

void run_batch(ml::DecodeScheduler& sched, ml::Precision tier,
               std::vector<std::vector<nlp::TokenId>> srcs, int64_t& next_request,
               Tracer& tr, Tier& out) {
  Tracer::Scope batch(tr, tier == ml::Precision::kDouble ? "decode_paper.batch.double"
                                                         : "decode_paper.batch.f32",
                      "bench");
  const auto before = sched.stats();
  const auto t0 = Clock::now();
  std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
  std::vector<Clock::time_point> submitted;
  for (const auto& src : srcs) {
    submitted.push_back(Clock::now());
    tickets.push_back(sched.submit(src, kTokens));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    ++out.tickets;
    try {
      const auto& tokens = tickets[i]->wait();
      ++out.served;
      if (i == 0) {
        out.probe_src = srcs[0];
        out.probe_out = tokens;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s ticket %zu failed: %s\n", tier_name(tier), i, e.what());
    }
    const auto done = Clock::now();
    out.latencies.push_back(seconds_between(submitted[i], done));
    tr.add(std::string("ml::DecodeScheduler::Ticket.") + tier_name(tier), "ml",
           tr.to_ns(submitted[i]), tr.to_ns(done), batch.id(), next_request++);
  }
  const auto after = sched.stats();
  out.steps += after.session_steps - before.session_steps;
  out.rounds += after.rounds - before.rounds;
  out.batch_rates.push_back(static_cast<double>(after.session_steps - before.session_steps) /
                            seconds_between(t0, Clock::now()));
}

struct Pass {
  Tier tiers[2];
};

Pass run_pass(Setup& s, uint64_t seed, double seconds, Tracer& tr) {
  Tracer::Scope window(tr, "decode_paper.window", "bench");
  Rng rng(derive_seed(seed, 2));
  Pass p;
  int64_t request = 0;
  const auto t0 = Clock::now();
  double pair_seconds = 0.0;
  // Whole double+f32 pairs, as many as fit in the time (at least one).
  do {
    const auto pair_start = Clock::now();
    for (int t = 0; t < 2; ++t) {
      run_batch(*s.schedulers[t], kTiers[t], make_batch(rng), request, tr, p.tiers[t]);
    }
    pair_seconds = seconds_between(pair_start, Clock::now());
  } while (seconds_between(t0, Clock::now()) + pair_seconds <= seconds);
  return p;
}

/// One ticket per tier, token for token against greedy_decode at that tier.
void check_pass(const Setup& s, const Pass& p, Tracer& tr, Report& report) {
  Tracer::Scope phase(tr, "decode_paper.checks", "bench");
  for (int t = 0; t < 2; ++t) {
    const Tier& tier = p.tiers[t];
    report.check(tier.served == tier.tickets,
                 std::string("every ") + tier_name(kTiers[t]) + " ticket is served");
    std::vector<nlp::TokenId> ref;
    {
      Tracer::Scope span(tr, "ml::InferenceEngine::greedy_decode", "ml");
      ref = s.engine->greedy_decode(tier.probe_src, kTokens, kTiers[t]);
    }
    report.check(!ref.empty() && ref == tier.probe_out,
                 std::string("a ") + tier_name(kTiers[t]) +
                     " ticket matches greedy_decode token for token");
  }
}

/// One Session per tier timed outside the scheduler: the unbatched
/// reference for what batching saves per step.
void time_sessions(const Setup& s, const Pass& p, Tracer& tr, Report& report) {
  for (int t = 0; t < 2; ++t) {
    const auto t0 = Clock::now();
    std::unique_ptr<ml::InferenceEngine::Session> session;
    {
      Tracer::Scope span(tr, "ml::InferenceEngine::Session", "ml");
      session = std::make_unique<ml::InferenceEngine::Session>(*s.engine,
                                                                p.tiers[t].probe_src, kTiers[t]);
    }
    const double encode_ms = seconds_between(t0, Clock::now()) * 1e3;
    std::vector<double> step_ms;
    nlp::TokenId token = nlp::Vocabulary::kBos;
    for (int64_t i = 0; i < kTokens; ++i) {
      Tracer::Scope span(tr, "ml::InferenceEngine::Session::step", "ml");
      const auto s0 = Clock::now();
      token = ml::argmax_token(session->step(token));
      step_ms.push_back(seconds_between(s0, Clock::now()) * 1e3);
    }
    if (kTiers[t] == ml::Precision::kDouble) report.metric("ml.engine.encode_ms", encode_ms, "ms");
    report.metric(std::string("ml.engine.step_ms.") + tier_name(kTiers[t]), median(step_ms), "ms");
  }
}

}  // namespace

void run_decode_paper(const RunOptions& opt, Report& report) {
  Tracer tracer(opt.trace);
  const int64_t wall_start = tracer.now_ns();
  std::unique_ptr<Setup> setup;
  if (opt.trace) {
    setup = build_setup(tracer);
  } else {
    timed_setups(report, kSetupRepeats, [&] {
      setup.reset();  // one engine at a time bounds peak memory
      setup = build_setup(tracer);
    });
  }
  std::printf("decode_paper: %lld parameters, batches of %d x %lld tokens\n",
              static_cast<long long>(setup->parameters), kBatch,
              static_cast<long long>(kTokens));

  LayerCounters counters;
  if (opt.trace) counters.begin();
  const Pass pass = run_pass(*setup, opt.seed, opt.seconds, tracer);
  if (opt.trace) counters.end();

  const Tier& dbl = pass.tiers[0];
  const Tier& f32 = pass.tiers[1];
  report.ops("decode_tickets", dbl.tickets + f32.tickets, dbl.served + f32.served,
             dbl.tickets + f32.tickets - dbl.served - f32.served);
  report.metric("throughput_per_s", f32.tokens_per_s(), "1/s");
  report.metric("throughput_alt_per_s", dbl.tokens_per_s(), "1/s");
  report.metric("ml.decode.ticket_latency_s.f32_p50", percentile(f32.latencies, 50.0), "s");
  report.metric("ml.decode.ticket_latency_s.f32_p90", percentile(f32.latencies, 90.0), "s");
  report.metric("decode_tokens_per_s_double", dbl.tokens_per_s(), "1/s");
  report.metric("decode_tokens_per_s_f32", f32.tokens_per_s(), "1/s");
  print_series("double tokens/s per batch", dbl.batch_rates);
  print_series("f32 tokens/s per batch", f32.batch_rates);
  check_pass(*setup, pass, tracer, report);
  if (!opt.trace) return;

  time_sessions(*setup, pass, tracer, report);
  const double steps = static_cast<double>(dbl.steps + f32.steps);
  const double rounds = static_cast<double>(dbl.rounds + f32.rounds);
  report.metric("ml.scheduler.occupancy", rounds > 0 ? steps / rounds : 0.0, "count");
  report.metric("ml.scheduler.rounds", rounds, "count");
  report.metric("ml.scheduler.session_steps", steps, "count");
  report.metric("ml.decode.ticket_latency_s.p50", percentile(dbl.latencies, 50.0), "s");
  counters.publish_common(report);
  finish_trace(tracer, wall_start, tracer.now_ns(), opt, report);

  tracer.set_enabled(false);
  const Pass untraced = run_pass(*setup, opt.seed, opt.seconds, tracer);
  report_overhead(1.0 / untraced.tiers[1].tokens_per_s(), 1.0 / f32.tokens_per_s(), report);
}

}  // namespace perfbench
