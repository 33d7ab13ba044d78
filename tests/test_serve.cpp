// Campaign-server and continuous-batching determinism tests.
//
// The serve layer's contract extends the repo-wide one: concurrency is a
// performance knob, never a semantics knob.  A DecodeScheduler ticket must be
// bit-identical to InferenceEngine::greedy_decode of the same request, and a
// CampaignServer outcome must be bit-identical to the serial
// SizingCopilot::size path — for any worker count, arrival order, or batch
// composition.  The fixtures run under the DeterminismTest umbrella so the
// TSan preset (which selects tests by name regex) races them with
// OTA_THREADS=8.  Queue semantics are covered too: drain serves everything,
// drainless cancellation answers everything, and nothing resolves twice.
//
// The admission-control and cancellation contracts extend that: a full queue
// rejects submissions (never exceeding max_queue_depth), and a request whose
// ota::CancelToken fires resolves exactly once as Cancelled (immediately
// when still queued, at the next stage boundary / decode round when in
// flight).  Scheduler tests cancel a ticket through the token they
// submitted it with; server tests through Job::cancel() and deadline_seconds,
// which fire the token the server makes for each job.  Every campaign that
// survives cancellation must still be bit-identical to the serial copilot.
// Timing-dependent cases are asserted race-tolerantly: a cancel may lose the
// race with completion, but the exactly-once accounting and bit-identity
// must hold either way.
#include "serve/campaign_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/metrics.hpp"
#include "ml/adam.hpp"
#include "ml/decode_scheduler.hpp"

namespace ota::serve {
namespace {

using nlp::TokenId;

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new device::Technology(device::Technology::default65nm());
    topo_ = new circuit::Topology(circuit::make_5t_ota(*tech_));
    core::DataGenOptions dopt;
    dopt.target_designs = 40;
    dopt.max_attempts = 20000;
    dopt.seed = 31;
    dataset_ = new core::Dataset(core::generate_dataset(
        *topo_, *tech_, core::SpecRange::for_topology("5T-OTA"), dopt));
    builder_ = new core::SequenceBuilder(*topo_, *tech_);
    luts_ = std::make_shared<const core::LutSet>(core::LutSet::build(*tech_));

    // A tiny model trained on real builder text: accuracy is irrelevant,
    // deterministic (and nontrivially structured) decoding is the property
    // under test.
    std::vector<std::pair<std::string, std::string>> pairs;
    for (size_t i = 0; i < 30 && i < dataset_->designs.size(); ++i) {
      const core::Design& d = dataset_->designs[i];
      pairs.emplace_back(builder_->encoder_text(d.specs),
                         builder_->decoder_text(d));
    }
    auto model = std::make_shared<core::SizingModel>();
    core::TrainOptions topt;
    topt.epochs = 2;
    topt.d_model = 16;
    topt.n_heads = 2;
    topt.n_layers = 1;
    topt.d_ff = 32;
    topt.bpe_merges = 48;
    topt.seed = 7;
    model->train(pairs, topt);
    model_ = new std::shared_ptr<const core::SizingModel>(std::move(model));
  }

  static void TearDownTestSuite() {
    delete model_;
    luts_.reset();
    delete builder_;
    delete dataset_;
    delete topo_;
    delete tech_;
  }

  static const core::SizingModel& model() { return **model_; }

  static core::CopilotOptions campaign_options() {
    core::CopilotOptions opt;
    opt.max_iterations = 3;  // keeps the SPICE budget of the matrix small
    opt.max_decode_tokens = 96;
    return opt;
  }

  static std::vector<core::Specs> campaign_targets(int n) {
    return core::targets_from_designs(dataset_->designs, n, 0.06, 17);
  }

  /// The bit-identity reference: the serial copilot, one campaign at a time.
  static std::vector<core::SizingOutcome> serial_outcomes(
      const std::vector<core::Specs>& targets, const core::CopilotOptions& opt) {
    core::SizingCopilot copilot(*topo_, *tech_, *builder_, model(), *luts_);
    std::vector<core::SizingOutcome> out;
    out.reserve(targets.size());
    for (const auto& t : targets) out.push_back(copilot.size(t, opt));
    return out;
  }

  /// Spins until every queued job has been picked up by a worker — the
  /// hand-off that makes "the worker is now busy running something" a fact
  /// rather than a guess in the admission-control tests.
  static void wait_for_pickup(const CampaignServer& server) {
    while (server.stats().queue_depth != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  static device::Technology* tech_;
  static circuit::Topology* topo_;
  static core::Dataset* dataset_;
  static core::SequenceBuilder* builder_;
  static std::shared_ptr<const core::LutSet> luts_;
  static std::shared_ptr<const core::SizingModel>* model_;
};

device::Technology* DeterminismTest::tech_ = nullptr;
circuit::Topology* DeterminismTest::topo_ = nullptr;
core::Dataset* DeterminismTest::dataset_ = nullptr;
core::SequenceBuilder* DeterminismTest::builder_ = nullptr;
std::shared_ptr<const core::LutSet> DeterminismTest::luts_;
std::shared_ptr<const core::SizingModel>* DeterminismTest::model_ = nullptr;

void expect_same_outcome(const core::SizingOutcome& a,
                         const core::SizingOutcome& b) {
  // Everything except the wall-clock `seconds` must agree bit-for-bit.
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.spice_simulations, b.spice_simulations);
  EXPECT_EQ(a.widths, b.widths);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.achieved.gain_db, b.achieved.gain_db);
  EXPECT_EQ(a.achieved.bw_hz, b.achieved.bw_hz);
  EXPECT_EQ(a.achieved.ugf_hz, b.achieved.ugf_hz);
  EXPECT_EQ(a.target.gain_db, b.target.gain_db);
}

// ---------------------------------------------------------------------------
// DecodeScheduler

TEST_F(DeterminismTest, SchedulerBitIdenticalToGreedyDecode) {
  const ml::InferenceEngine& engine = model().engine();
  const auto targets = campaign_targets(8);

  std::vector<std::vector<TokenId>> srcs;
  std::vector<std::vector<TokenId>> reference;
  for (const auto& t : targets) {
    srcs.push_back(model().tokenizer().encode(builder_->encoder_text(t)));
    reference.push_back(engine.greedy_decode(srcs.back(), 96));
  }

  for (int threads : {1, 3, 8}) {
    ml::DecodeScheduler::Options opt;
    opt.max_batch = 4;  // smaller than the request count: forces queueing
    par::ThreadPool pool(threads);
    ml::DecodeScheduler scheduler(engine, opt, pool);

    // Concurrent submitters in a shuffled order: arrival order and batch
    // composition vary run to run, results must not.
    std::vector<size_t> order(srcs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937 shuffle_rng(1000 + static_cast<unsigned>(threads));
    std::shuffle(order.begin(), order.end(), shuffle_rng);

    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets(srcs.size());
    std::vector<std::thread> submitters;
    for (int s = 0; s < 2; ++s) {
      submitters.emplace_back([&, s] {
        for (size_t i = static_cast<size_t>(s); i < order.size(); i += 2) {
          tickets[order[i]] = scheduler.submit(srcs[order[i]], 96);
        }
      });
    }
    for (auto& t : submitters) t.join();

    for (size_t i = 0; i < srcs.size(); ++i) {
      EXPECT_EQ(tickets[i]->wait(), reference[i])
          << "request " << i << " threads " << threads;
    }
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, srcs.size());
    EXPECT_EQ(stats.served, srcs.size());
    EXPECT_LE(stats.peak_batch, 4u);
  }
}

/// A tiny transformer trained to copy four-token sequences and stop: on the
/// trained patterns its greedy decode ends on <eos>, on other inputs it may
/// run to the budget.
const ml::Transformer& copy_task_model() {
  static const std::unique_ptr<ml::Transformer> model = [] {
    ml::TransformerConfig cfg;
    cfg.vocab_size = 10;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    cfg.d_ff = 32;
    cfg.max_len = 64;
    cfg.dropout = 0.0;
    cfg.seed = 5;
    auto m = std::make_unique<ml::Transformer>(cfg);
    ml::AdamOptions aopt;
    aopt.lr = 3e-3;
    ml::Adam adam(m->parameters(), aopt);
    Rng rng(5);
    const std::vector<std::vector<TokenId>> seqs{
        {4, 5, 6, 7}, {5, 4, 7, 6}, {6, 7, 4, 5}, {7, 6, 5, 4}};
    const std::vector<double> weights(5, 1.0);
    for (int epoch = 0; epoch < 60; ++epoch) {
      for (const auto& seq : seqs) {
        ml::backward(m->loss(seq, seq, weights, rng));
        adam.step();
      }
    }
    return m;
  }();
  return *model;
}

TEST_F(DeterminismTest, SchedulerStackedRoundsMatchGreedyDecode) {
  // Each round steps a chunk's sessions as one stacked group.  Submissions
  // are staggered so that groups mix sessions at different positions, with
  // budgets from 1 to 64 tokens, some requests ending on <eos> first; every
  // ticket must still be greedy_decode of its request at the tier.
  const ml::InferenceEngine engine(copy_task_model());
  const std::vector<std::vector<TokenId>> srcs{
      {4, 5, 6, 7}, {5, 6, 7, 4, 5, 6, 7, 4}, {5, 4, 7, 6}, {9, 8},
      {6, 7, 4, 5}, {4, 4, 4, 4}, {7, 6, 5, 4}, {8, 9, 8},
      {7, 5},       {6},          {4, 5, 6, 7}, {9, 9, 9, 9, 9}};
  const std::vector<int64_t> budgets{1, 64, 2, 40, 3, 64, 5, 17, 64, 8, 33, 64};

  for (const ml::Precision tier :
       {ml::Precision::kDouble, ml::Precision::kFloat32}) {
    std::vector<std::vector<TokenId>> reference;
    bool some_end_on_eos = false;
    for (size_t i = 0; i < srcs.size(); ++i) {
      reference.push_back(engine.greedy_decode(srcs[i], budgets[i], tier));
      some_end_on_eos |=
          static_cast<int64_t>(reference.back().size()) < budgets[i];
    }
    EXPECT_TRUE(some_end_on_eos);

    for (int threads : {1, 3, 8}) {
      ml::DecodeScheduler::Options opt;
      opt.max_batch = 5;
      opt.precision = tier;
      par::ThreadPool pool(threads);
      ml::DecodeScheduler scheduler(engine, opt, pool);

      // Each submission waits until the batch has stepped two more rounds
      // (or has drained), so later requests join sessions already decoding.
      std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
      const auto drained = [&] {
        return std::all_of(tickets.begin(), tickets.end(),
                           [](const auto& t) { return t->done(); });
      };
      for (size_t i = 0; i < srcs.size(); ++i) {
        const uint64_t rounds = scheduler.stats().rounds;
        tickets.push_back(scheduler.submit(srcs[i], budgets[i]));
        while (scheduler.stats().rounds < rounds + 2 && !drained()) {
          std::this_thread::yield();
        }
      }
      for (size_t i = 0; i < srcs.size(); ++i) {
        EXPECT_EQ(tickets[i]->wait(), reference[i])
            << "request " << i << " tier " << static_cast<int>(tier)
            << " threads " << threads;
      }
      const auto stats = scheduler.stats();
      EXPECT_EQ(stats.served, srcs.size());
      EXPECT_LE(stats.peak_batch, 5u);
    }
  }
}

TEST_F(DeterminismTest, SchedulerBurstDuringAdmissionJoinsOneBatch) {
  // Requests that arrive while admission is still building sessions join
  // that admission, so a burst decodes as one batch even when the
  // scheduler woke on its first request.  Every pool worker is held busy,
  // so the first request's build waits in the queue while the rest arrive.
  const ml::InferenceEngine engine(copy_task_model());
  const std::vector<TokenId> src{4, 5, 6, 7};
  constexpr int64_t kBudget = 6;
  const std::vector<TokenId> reference = engine.greedy_decode(src, kBudget);
  // Rounds one request takes: a step per token, plus the step that
  // produced <eos> if it ended early.
  const uint64_t steps =
      reference.size() + (static_cast<int64_t>(reference.size()) < kBudget);

  for (int threads : {2, 3}) {
    par::ThreadPool pool(threads);
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    for (int w = 0; w < threads; ++w) {
      (void)pool.submit([released] { released.wait(); });
    }
    ml::DecodeScheduler::Options opt;
    opt.max_batch = 8;
    ml::DecodeScheduler scheduler(engine, opt, pool);

    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
    tickets.push_back(scheduler.submit(src, kBudget));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 4; ++i) tickets.push_back(scheduler.submit(src, kBudget));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.set_value();

    for (const auto& t : tickets) EXPECT_EQ(t->wait(), reference);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.rounds, steps) << "threads " << threads;
    EXPECT_EQ(stats.peak_batch, 5u) << "threads " << threads;
  }
}

TEST_F(DeterminismTest, SchedulerRejectsBadSubmissions) {
  ml::DecodeScheduler scheduler(model().engine());
  const auto src = model().tokenizer().encode("SPEC 20dB");
  EXPECT_THROW((void)scheduler.submit(src, 0), InvalidArgument);
  EXPECT_THROW((void)scheduler.submit(src, -3), InvalidArgument);
  scheduler.shutdown();
  EXPECT_THROW((void)scheduler.submit(src, 16), InvalidArgument);
}

TEST_F(DeterminismTest, SchedulerRefusedRequestFailsOnlyItsTicket) {
  // Requests the engine refuses at admission (an empty prompt, one past the
  // positional table, a token id past the vocabulary) arrive in one burst
  // with good ones.  Each refused ticket fails alone with InvalidArgument;
  // every other ticket is still its request's greedy_decode.
  const ml::InferenceEngine engine(copy_task_model());
  const int64_t max_len = engine.config().max_len;
  const TokenId past_vocab = static_cast<TokenId>(engine.config().vocab_size);
  struct Request {
    std::vector<TokenId> src;
    bool refused;
  };
  const std::vector<Request> burst{
      {{4, 5, 6, 7}, false},
      {{}, true},
      {{5, 4, 7, 6}, false},
      {std::vector<TokenId>(static_cast<size_t>(max_len) + 1, 4), true},
      {{7, 5}, false},
      {{4, past_vocab, 5}, true},
      {{6, 7, 4, 5}, false},
  };
  constexpr int64_t kBudget = 16;
  std::vector<std::vector<TokenId>> reference;
  uint64_t good = 0;
  for (const Request& r : burst) {
    reference.push_back(r.refused ? std::vector<TokenId>{}
                                  : engine.greedy_decode(r.src, kBudget));
    good += r.refused ? 0 : 1;
  }

  for (int threads : {1, 3}) {
    par::ThreadPool pool(threads);
    ml::DecodeScheduler scheduler(engine, {}, pool);
    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
    for (const Request& r : burst) {
      tickets.push_back(scheduler.submit(r.src, kBudget));
    }
    for (size_t i = 0; i < burst.size(); ++i) {
      if (burst[i].refused) {
        EXPECT_THROW((void)tickets[i]->wait(), InvalidArgument)
            << "request " << i << " threads " << threads;
      } else {
        EXPECT_EQ(tickets[i]->wait(), reference[i])
            << "request " << i << " threads " << threads;
      }
    }
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, burst.size());
    EXPECT_EQ(stats.served, good) << "threads " << threads;
    EXPECT_EQ(stats.failed, burst.size() - good) << "threads " << threads;
    EXPECT_EQ(stats.cancelled, 0u);
  }
}

TEST_F(DeterminismTest, SchedulerDrainServesEveryRequestExactlyOnce) {
  const ml::InferenceEngine& engine = model().engine();
  const auto src = model().tokenizer().encode(
      builder_->encoder_text(campaign_targets(1)[0]));
  const auto reference = engine.greedy_decode(src, 64);

  ml::DecodeScheduler scheduler(engine);
  std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(scheduler.submit(src, 64));
  scheduler.shutdown(/*drain=*/true);

  for (const auto& t : tickets) {
    ASSERT_TRUE(t->done());
    EXPECT_EQ(t->wait(), reference);
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.served, 12u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(DeterminismTest, SchedulerDrainlessShutdownAnswersEveryRequest) {
  const ml::InferenceEngine& engine = model().engine();
  const auto src = model().tokenizer().encode(
      builder_->encoder_text(campaign_targets(1)[0]));

  ml::DecodeScheduler scheduler(engine);
  std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(scheduler.submit(src, 64));
  scheduler.shutdown(/*drain=*/false);

  // Every ticket must resolve exactly once: served before the shutdown won
  // the race, or cancelled by it — never lost, never both.
  uint64_t served = 0, cancelled = 0;
  for (const auto& t : tickets) {
    ASSERT_TRUE(t->done());
    try {
      (void)t->wait();
      ++served;
    } catch (const Cancelled&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(served + cancelled, 12u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.cancelled, cancelled);
}

// ---------------------------------------------------------------------------
// Float32 decode tier through the serving stack

TEST_F(DeterminismTest, SchedulerF32TierAgreesAcrossThreadsAndBatches) {
  // The float32 tier under the same determinism matrix as the double tier:
  // for 1/3/8 scheduler threads, shuffled concurrent arrival, and forced
  // queueing (max_batch < requests), every ticket must be bit-identical to
  // the engine's serial f32 greedy_decode — and, on this trained model, the
  // f32 stream must agree token-for-token with the double reference (the
  // tier's shipping gate).  Per-tier counters must attribute every step.
  const ml::InferenceEngine& engine = model().engine();
  const auto targets = campaign_targets(8);

  std::vector<std::vector<TokenId>> srcs;
  std::vector<std::vector<TokenId>> reference;
  for (const auto& t : targets) {
    srcs.push_back(model().tokenizer().encode(builder_->encoder_text(t)));
    reference.push_back(
        engine.greedy_decode(srcs.back(), 96, ml::Precision::kFloat32));
    EXPECT_EQ(reference.back(),
              engine.greedy_decode(srcs.back(), 96, ml::Precision::kDouble))
        << "f32/double token divergence on trained model, request "
        << reference.size() - 1;
  }

  for (int threads : {1, 3, 8}) {
    ml::DecodeScheduler::Options opt;
    opt.max_batch = 4;
    opt.precision = ml::Precision::kFloat32;
    par::ThreadPool pool(threads);
    ml::DecodeScheduler scheduler(engine, opt, pool);

    std::vector<size_t> order(srcs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937 shuffle_rng(3000 + static_cast<unsigned>(threads));
    std::shuffle(order.begin(), order.end(), shuffle_rng);

    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets(srcs.size());
    std::vector<std::thread> submitters;
    for (int s = 0; s < 2; ++s) {
      submitters.emplace_back([&, s] {
        for (size_t i = static_cast<size_t>(s); i < order.size(); i += 2) {
          tickets[order[i]] = scheduler.submit(srcs[order[i]], 96);
        }
      });
    }
    for (auto& t : submitters) t.join();

    for (size_t i = 0; i < srcs.size(); ++i) {
      EXPECT_EQ(tickets[i]->wait(), reference[i])
          << "request " << i << " threads " << threads;
    }
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.served, srcs.size());
    EXPECT_EQ(stats.tokens_double, 0u);
    EXPECT_GT(stats.tokens_f32, 0u);
    EXPECT_EQ(stats.tokens_f32 + stats.tokens_double, stats.session_steps);
  }
}

TEST_F(DeterminismTest, SchedulerDoubleTierAttributesTokensToDoubleCounter) {
  ml::DecodeScheduler scheduler(model().engine());  // default tier: double
  const auto src = model().tokenizer().encode(
      builder_->encoder_text(campaign_targets(1)[0]));
  (void)scheduler.submit(src, 32)->wait();
  const auto stats = scheduler.stats();
  EXPECT_GT(stats.tokens_double, 0u);
  EXPECT_EQ(stats.tokens_f32, 0u);
  EXPECT_EQ(stats.tokens_double, stats.session_steps);
}

TEST_F(DeterminismTest, CampaignServerF32TopologyMatchesF32SerialCopilot) {
  // A topology registered on the float32 tier must serve campaigns
  // bit-identical to the serial copilot over a float32 batch-of-one
  // predictor — the same WHAT-not-WHEN contract as the double path, one
  // tier down.  Stats must attribute every decode step to f32.
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();

  struct F32Reference : core::Predictor {
    std::string predict(const std::string& text, int n,
                        const CancelToken& = {}) const override {
      const nlp::BpeTokenizer& tok = model().tokenizer();
      return tok.decode(model().engine().greedy_decode(
          tok.encode(text), n, ml::Precision::kFloat32));
    }
  } f32_reference;
  std::vector<core::SizingOutcome> reference;
  {
    core::SizingCopilot copilot(*topo_, *tech_, *builder_, f32_reference,
                                *luts_);
    for (const auto& t : targets) reference.push_back(copilot.size(t, opt));
  }

  CampaignServer::Options sopt;
  sopt.workers = 4;
  CampaignServer server(sopt);
  server.register_topology(
      "5T-OTA", *topo_, *tech_, *model_, luts_,
      {.max_batch = 4, .precision = ml::Precision::kFloat32});

  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, opt}));
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CampaignResult& res = jobs[i]->wait();
    ASSERT_EQ(res.status, CampaignStatus::Served)
        << "campaign " << i << ": " << res.error;
    expect_same_outcome(res.outcome, reference[i]);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, targets.size());
  EXPECT_EQ(stats.decode.tokens_double, 0u);
  EXPECT_GT(stats.decode.tokens_f32, 0u);
}

TEST_F(DeterminismTest, ForgedPrecisionIsRefusedAtEveryDoor) {
  // An out-of-range Precision forged with a static_cast must be refused at
  // construction/registration, before any thread is spawned — scheduler
  // options, whether built directly or passed through register_topology.
  const auto forged = static_cast<ml::Precision>(5);

  ml::DecodeScheduler::Options dopt;
  dopt.precision = forged;
  EXPECT_THROW(ml::DecodeScheduler(model().engine(), dopt), InvalidArgument);

  CampaignServer server;
  EXPECT_THROW(server.register_topology("5T-OTA", *topo_, *tech_, *model_,
                                        luts_, {.precision = forged}),
               InvalidArgument);
  // The failed registration must release its name reservation: the same
  // name registers cleanly at a valid tier afterwards.
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_,
                           {.precision = ml::Precision::kFloat32});
}

TEST_F(DeterminismTest, ScheduledPredictorHandsItsTokenToTheScheduler) {
  // The caller's token must reach the scheduler: a fired one retires the
  // request before a single decode step, and the inert one decodes exactly
  // the serial model's bytes.
  ml::DecodeScheduler scheduler(model().engine());
  const ScheduledPredictor predictor(model(), scheduler);
  const std::string text = builder_->encoder_text(campaign_targets(1)[0]);

  CancelToken fired(CancelToken::Clock::time_point::max());
  fired.cancel();
  EXPECT_THROW((void)predictor.predict(text, 96, fired), Cancelled);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.session_steps, 0u);

  EXPECT_EQ(predictor.predict(text, 96), model().predict(text, 96));
}

// ---------------------------------------------------------------------------
// CampaignServer

TEST_F(DeterminismTest, NonPositiveDecodeBudgetFailsOnBothStageTwoPaths) {
  // A zero token budget would decode nothing.  The serial copilot's
  // SizingModel::predict refuses it, and so does the scheduler a served
  // campaign predicts through, before any simulation runs.
  const auto target = campaign_targets(1)[0];
  auto opt = campaign_options();
  opt.max_decode_tokens = 0;

  core::SizingCopilot copilot(*topo_, *tech_, *builder_, model(), *luts_);
  EXPECT_THROW((void)copilot.size(target, opt), InvalidArgument);

  CampaignServer::Options sopt;
  sopt.workers = 1;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);
  const auto job = server.submit({"5T-OTA", target, opt});
  const CampaignResult& res = job->wait();
  EXPECT_EQ(res.status, CampaignStatus::Failed);
  EXPECT_NE(res.error.find("max_tokens must be positive"), std::string::npos)
      << res.error;
  EXPECT_EQ(res.outcome.spice_simulations, 0);
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST_F(DeterminismTest, CampaignServerBitIdenticalToSerialCopilot) {
  const auto targets = campaign_targets(6);
  const auto opt = campaign_options();

  // The bit-identity reference: the serial copilot path, one campaign at a
  // time on this thread.
  std::vector<core::SizingOutcome> reference;
  {
    core::SizingCopilot copilot(*topo_, *tech_, *builder_, model(), *luts_);
    for (const auto& t : targets) reference.push_back(copilot.size(t, opt));
  }

  for (int workers : {1, 3, 8}) {
    CampaignServer::Options sopt;
    sopt.workers = workers;
    CampaignServer server(sopt);
    server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_,
                             {.max_batch = 4});

    std::vector<size_t> order(targets.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937 shuffle_rng(2000 + static_cast<unsigned>(workers));
    std::shuffle(order.begin(), order.end(), shuffle_rng);

    std::vector<std::shared_ptr<CampaignServer::Job>> jobs(targets.size());
    for (size_t i : order) {
      jobs[i] = server.submit({"5T-OTA", targets[i], opt});
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      const CampaignResult& res = jobs[i]->wait();
      ASSERT_EQ(res.status, CampaignStatus::Served)
          << "campaign " << i << " workers " << workers << ": " << res.error;
      expect_same_outcome(res.outcome, reference[i]);
      EXPECT_GE(res.total_seconds, res.queue_seconds);
    }

    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, targets.size());
    EXPECT_EQ(stats.served, targets.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.decode.served, 0u);
  }
}

TEST_F(DeterminismTest, CampaignServerRejectsBadSubmissions) {
  CampaignServer::Options sopt;
  sopt.workers = 1;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);
  EXPECT_THROW((void)server.submit({"no-such-topology", {}, {}}),
               InvalidArgument);
  EXPECT_THROW(server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_),
               InvalidArgument);
  // The server owns each job's token: a caller-set one is refused rather
  // than silently replaced, and so is a NaN deadline.
  CampaignRequest preset{"5T-OTA", campaign_targets(1)[0], {}};
  preset.options.cancel = CancelToken(CancelToken::Clock::time_point::max());
  EXPECT_THROW((void)server.submit(preset), InvalidArgument);
  CampaignRequest nan_deadline{"5T-OTA", campaign_targets(1)[0], {}};
  nan_deadline.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)server.submit(nan_deadline), InvalidArgument);
  EXPECT_EQ(server.stats().submitted, 0u);
  server.shutdown();
  EXPECT_THROW((void)server.submit({"5T-OTA", campaign_targets(1)[0], {}}),
               InvalidArgument);
  EXPECT_THROW(server.register_topology("other", *topo_, *tech_, *model_, luts_),
               InvalidArgument);
}

TEST_F(DeterminismTest, CampaignServerDrainlessShutdownAnswersEveryJob) {
  const auto targets = campaign_targets(6);
  const auto opt = campaign_options();

  CampaignServer::Options sopt;
  sopt.workers = 1;  // one worker: most jobs still queued at shutdown
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, opt}));
  server.shutdown(/*drain=*/false);

  uint64_t served = 0, cancelled = 0, failed = 0;
  for (const auto& job : jobs) {
    ASSERT_TRUE(job->done());
    const CampaignResult& res = job->wait();
    switch (res.status) {
      case CampaignStatus::Served: ++served; break;
      case CampaignStatus::Failed: ++failed; break;
      case CampaignStatus::Cancelled:
        ++cancelled;
        // A job cancelled by shutdown spent its whole life in queue: the
        // queue time must equal the total time, not read 0.
        EXPECT_GT(res.queue_seconds, 0.0);
        EXPECT_EQ(res.queue_seconds, res.total_seconds);
        break;
    }
  }
  EXPECT_EQ(served + cancelled + failed, jobs.size());
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.cancelled, cancelled);
}

// ---------------------------------------------------------------------------
// Admission control and cancellation

TEST_F(DeterminismTest, SchedulerRejectsNonPositiveMaxBatch) {
  ml::DecodeScheduler::Options opt;
  opt.max_batch = 0;
  EXPECT_THROW({ ml::DecodeScheduler s(model().engine(), opt); }, InvalidArgument);
  opt.max_batch = -4;
  EXPECT_THROW({ ml::DecodeScheduler s(model().engine(), opt); }, InvalidArgument);
}

TEST_F(DeterminismTest, SchedulerPresetCancelAndPastDeadlineResolveCancelled) {
  // Deterministic cancellation cases: a request submitted with its token
  // already cancelled, or its deadline already past, must resolve Cancelled —
  // no timing involved.  A generous deadline must not interfere.
  const ml::InferenceEngine& engine = model().engine();
  const auto src = model().tokenizer().encode(
      builder_->encoder_text(campaign_targets(1)[0]));
  const auto reference = engine.greedy_decode(src, 64);
  ml::DecodeScheduler scheduler(engine);

  const CancelToken set_flag(CancelToken::Clock::time_point::max());
  set_flag.cancel();
  auto cancelled_ticket = scheduler.submit(src, 64, set_flag);

  auto expired_ticket = scheduler.submit(
      src, 64,
      CancelToken(CancelToken::Clock::now() - std::chrono::seconds(1)));

  auto generous_ticket = scheduler.submit(
      src, 64, CancelToken(CancelToken::Clock::now() + std::chrono::hours(1)));

  EXPECT_THROW((void)cancelled_ticket->wait(), Cancelled);
  EXPECT_THROW((void)expired_ticket->wait(), Cancelled);
  EXPECT_EQ(generous_ticket->wait(), reference);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeterminismTest, SchedulerTicketCancelResolvesExactlyOnce) {
  // Racy-by-design: cancel tickets while the batch is live.  Whatever the
  // interleaving, every ticket resolves exactly once — Cancelled, or served
  // with the exact greedy_decode tokens — and the counters agree.
  const ml::InferenceEngine& engine = model().engine();
  const auto targets = campaign_targets(6);
  std::vector<std::vector<TokenId>> srcs;
  std::vector<std::vector<TokenId>> reference;
  for (const auto& t : targets) {
    srcs.push_back(model().tokenizer().encode(builder_->encoder_text(t)));
    reference.push_back(engine.greedy_decode(srcs.back(), 96));
  }

  ml::DecodeScheduler::Options opt;
  opt.max_batch = 2;  // smaller than the request count: some cancel queued
  ml::DecodeScheduler scheduler(engine, opt);

  std::vector<CancelToken> tokens;
  std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
  for (const auto& s : srcs) {
    tokens.emplace_back(CancelToken::Clock::time_point::max());
    tickets.push_back(scheduler.submit(s, 96, tokens.back()));
  }
  for (size_t i = 1; i < tickets.size(); i += 2) tokens[i].cancel();

  uint64_t served = 0, cancelled = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    try {
      // A cancelled ticket may still serve if decoding won the race — but
      // then it must be bit-identical; a never-cancelled ticket must serve.
      EXPECT_EQ(tickets[i]->wait(), reference[i]) << "survivor " << i;
      ++served;
    } catch (const Cancelled&) {
      ++cancelled;
      EXPECT_EQ(tokens[i].reason(CancelToken::Clock::now()),
                CancelToken::Reason::kCancelled);
      EXPECT_EQ(i % 2, 1u) << "ticket " << i << " cancelled but never asked to";
    }
  }
  EXPECT_EQ(served + cancelled, tickets.size());
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, tickets.size());
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeterminismTest, CampaignServerRejectsBadOptions) {
  CampaignServer::Options bad;
  bad.max_queue_depth = -1;
  EXPECT_THROW({ CampaignServer s(bad); }, InvalidArgument);
  bad = CampaignServer::Options{};
  bad.workers = -1;
  EXPECT_THROW({ CampaignServer s(bad); }, InvalidArgument);
  bad = CampaignServer::Options{};
  bad.max_retries = -1;
  EXPECT_THROW({ CampaignServer s(bad); }, InvalidArgument);

  // A decode batch that can never admit a request would hang every
  // campaign: the topology's scheduler refuses it at registration, and the
  // refused registration leaves the name free.
  CampaignServer server;
  EXPECT_THROW(server.register_topology("5T-OTA", *topo_, *tech_, *model_,
                                        luts_, {.max_batch = 0}),
               InvalidArgument);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);
}

TEST_F(DeterminismTest, CampaignServerCancelWhileQueuedResolvesImmediately) {
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  CampaignServer::Options sopt;
  sopt.workers = 1;  // one worker: everything behind the first job queues
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  auto first = server.submit({"5T-OTA", targets[0], opt});
  std::vector<std::shared_ptr<CampaignServer::Job>> rest;
  for (size_t i = 1; i < targets.size(); ++i) {
    rest.push_back(server.submit({"5T-OTA", targets[i], opt}));
  }
  // Cancel everything queued.  With the single worker busy on `first`, the
  // cancels land on unstarted jobs, which resolve synchronously — but the
  // assertions below also tolerate the (theoretical) race where a worker
  // got there first, in which case bit-identity must hold.
  for (auto& job : rest) job->cancel();

  uint64_t cancelled = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    const CampaignResult& res = rest[i]->wait();
    if (res.status == CampaignStatus::Cancelled) {
      ++cancelled;
      // Never ran: no predictions, no simulations, queue time == total time.
      EXPECT_EQ(res.outcome.spice_simulations, 0);
      EXPECT_EQ(res.outcome.iterations, 0);
      EXPECT_EQ(res.queue_seconds, res.total_seconds);
    } else {
      ASSERT_EQ(res.status, CampaignStatus::Served) << res.error;
      expect_same_outcome(res.outcome, reference[i + 1]);
    }
  }
  EXPECT_GE(cancelled, 1u);

  const CampaignResult& res = first->wait();
  ASSERT_EQ(res.status, CampaignStatus::Served) << res.error;
  expect_same_outcome(res.outcome, reference[0]);

  server.shutdown(/*drain=*/true);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, targets.size());
  EXPECT_EQ(stats.served + stats.cancelled + stats.failed, targets.size());
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeterminismTest, CampaignServerCancelMidFlightResolvesExactlyOnce) {
  const auto targets = campaign_targets(6);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  CampaignServer::Options sopt;
  sopt.workers = 3;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_,
                           {.max_batch = 4});

  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, opt}));
  // Let campaigns get in flight, then cancel half mid-run: the copilot
  // observes the flag at a stage boundary or its decode ticket retires from
  // the dynamic batch mid-round.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (size_t i = 0; i < jobs.size(); i += 2) jobs[i]->cancel();

  uint64_t served = 0, cancelled = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CampaignResult& res = jobs[i]->wait();
    if (res.status == CampaignStatus::Served) {
      ++served;
      expect_same_outcome(res.outcome, reference[i]);
    } else {
      ASSERT_EQ(res.status, CampaignStatus::Cancelled) << res.error;
      ++cancelled;
      EXPECT_EQ(i % 2, 0u) << "job " << i << " cancelled but never asked to";
    }
  }
  EXPECT_EQ(served + cancelled, jobs.size());
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeterminismTest, CampaignServerDeadlineExpiresInQueue) {
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();

  CampaignServer::Options sopt;
  sopt.workers = 1;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  // The first job (no deadline) occupies the only worker for a whole
  // campaign; the tight-deadline jobs behind it expire long before the
  // worker frees up and must resolve without a single decode or sim.
  auto first = server.submit({"5T-OTA", targets[0], opt});
  std::vector<std::shared_ptr<CampaignServer::Job>> doomed;
  for (size_t i = 1; i < targets.size(); ++i) {
    CampaignRequest req{"5T-OTA", targets[i], opt};
    req.deadline_seconds = 5e-4;
    doomed.push_back(server.submit(std::move(req)));
  }

  EXPECT_EQ(first->wait().status, CampaignStatus::Served) << first->wait().error;
  for (const auto& job : doomed) {
    const CampaignResult& res = job->wait();
    ASSERT_EQ(res.status, CampaignStatus::Cancelled) << res.error;
    EXPECT_NE(res.error.find("deadline"), std::string::npos) << res.error;
    EXPECT_EQ(res.outcome.spice_simulations, 0);
    EXPECT_GT(res.queue_seconds, 0.0);
  }

  // A generous deadline must not interfere with being served.
  CampaignRequest fine{"5T-OTA", targets[1], opt};
  fine.deadline_seconds = 3600.0;
  auto served = server.submit(std::move(fine));
  EXPECT_EQ(served->wait().status, CampaignStatus::Served) << served->wait().error;

  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, doomed.size());
  EXPECT_EQ(stats.cancelled, doomed.size());
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeterminismTest, CampaignServerFarFutureDeadlinesAreServed) {
  // Deadlines past the steady clock's range (~292 years of nanosecond
  // ticks) and +inf mean "no deadline": the conversion saturates instead of
  // overflowing into the past, so these jobs run and are served.
  const auto targets = campaign_targets(3);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  CampaignServer::Options sopt;
  sopt.workers = 3;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  const double far[] = {1e10, 1e12, std::numeric_limits<double>::infinity()};
  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (size_t i = 0; i < targets.size(); ++i) {
    CampaignRequest req{"5T-OTA", targets[i], opt};
    req.deadline_seconds = far[i];
    jobs.push_back(server.submit(std::move(req)));
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CampaignResult& res = jobs[i]->wait();
    ASSERT_EQ(res.status, CampaignStatus::Served)
        << "deadline_seconds " << far[i] << ": " << res.error;
    expect_same_outcome(res.outcome, reference[i]);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, jobs.size());
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(DeterminismTest, CampaignServerRejectPolicyBoundsQueue) {
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();
  // A slow first campaign: the worker must still be busy with it when the
  // queue is filled below.  A 3-iteration one can finish first on a loaded
  // host; the worker then takes `second` and the fourth submission finds
  // room.  No 5T-OTA meets 60 dB, so this one runs all 200 iterations.
  const core::Specs unreachable{60.0, 50e6, 5e9};
  core::CopilotOptions slow = campaign_options();
  slow.max_iterations = 200;

  CampaignServer::Options sopt;
  sopt.workers = 1;
  sopt.max_queue_depth = 2;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  // Occupy the worker, then fill the queue to its cap; the next submission
  // must bounce with ServerOverloaded instead of growing the queue.
  auto first = server.submit({"5T-OTA", unreachable, slow});
  wait_for_pickup(server);
  auto second = server.submit({"5T-OTA", targets[1], opt});
  auto third = server.submit({"5T-OTA", targets[2], opt});
  EXPECT_THROW((void)server.submit({"5T-OTA", targets[3], opt}),
               ServerOverloaded);

  server.shutdown(/*drain=*/true);
  for (const auto& job : {first, second, third}) {
    EXPECT_EQ(job->wait().status, CampaignStatus::Served) << job->wait().error;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);  // the rejected one was never admitted
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_LE(stats.peak_queue_depth, 2u);
}

TEST_F(DeterminismTest, CampaignServerDrainServesWholeQueue) {
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();

  CampaignServer::Options sopt;
  sopt.workers = 2;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, opt}));
  server.shutdown(/*drain=*/true);

  for (const auto& job : jobs) {
    ASSERT_TRUE(job->done());
    EXPECT_EQ(job->wait().status, CampaignStatus::Served) << job->wait().error;
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, jobs.size());
  EXPECT_EQ(stats.cancelled, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection & recovery.  Faults ride in through ota::fault (per-site
// counted streams, so the firing SET is thread-count independent); the
// properties under test are containment (a poisoned request fails alone),
// survival (the scheduler thread and the workers keep serving afterwards),
// recovery (transient faults retry within budget), and the usual bit-identity
// of everything a fault did not touch.  References are always computed before
// the spec is installed, so they are fault-free by construction.

TEST_F(DeterminismTest, SchedulerSurvivesPoisonedEncode) {
  const ml::InferenceEngine& engine = model().engine();
  const auto targets = campaign_targets(5);
  std::vector<std::vector<TokenId>> srcs;
  std::vector<std::vector<TokenId>> reference;
  for (const auto& t : targets) {
    srcs.push_back(model().tokenizer().encode(builder_->encoder_text(t)));
    reference.push_back(engine.greedy_decode(srcs.back(), 64));
  }

  for (int threads : {1, 3, 8}) {
    // Session construction runs serially on the scheduler thread in FIFO
    // admission order, so hit 1 is deterministically the first submission.
    fault::ScopedFaults faults("ml.session.encode:once=1");
    ml::DecodeScheduler::Options opt;
    par::ThreadPool pool(threads);
    ml::DecodeScheduler scheduler(engine, opt, pool);

    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
    for (const auto& src : srcs) tickets.push_back(scheduler.submit(src, 64));

    // The poisoned request fails alone, with the site in the error...
    try {
      (void)tickets[0]->wait();
      FAIL() << "poisoned encode should have failed ticket 0";
    } catch (const fault::InjectedFault& e) {
      EXPECT_EQ(e.site(), "ml.session.encode");
    }
    // ...every other request is bit-identical to greedy_decode...
    for (size_t i = 1; i < tickets.size(); ++i) {
      EXPECT_EQ(tickets[i]->wait(), reference[i]) << i << " @" << threads;
    }
    // ...and the scheduler is still alive for post-fault traffic.
    EXPECT_EQ(scheduler.submit(srcs[0], 64)->wait(), reference[0]);

    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, srcs.size() + 1);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.served, srcs.size());
  }
}

TEST_F(DeterminismTest, SchedulerSurvivesPoisonedMidDecodeStep) {
  const ml::InferenceEngine& engine = model().engine();
  const auto targets = campaign_targets(6);
  std::vector<std::vector<TokenId>> srcs;
  std::vector<std::vector<TokenId>> reference;
  for (const auto& t : targets) {
    srcs.push_back(model().tokenizer().encode(builder_->encoder_text(t)));
    reference.push_back(engine.greedy_decode(srcs.back(), 64));
  }

  for (int threads : {1, 3, 8}) {
    // Step hits are claimed by racing pool workers: WHICH session claims the
    // firing hit is timing, but exactly one does — so the assertions are
    // race-tolerant (exactly one ticket fails, survivors are bit-identical).
    fault::ScopedFaults faults("ml.session.step:once=3");
    ml::DecodeScheduler::Options opt;
    par::ThreadPool pool(threads);
    ml::DecodeScheduler scheduler(engine, opt, pool);

    std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
    for (const auto& src : srcs) tickets.push_back(scheduler.submit(src, 64));

    size_t failed = 0;
    for (size_t i = 0; i < tickets.size(); ++i) {
      try {
        EXPECT_EQ(tickets[i]->wait(), reference[i]) << i << " @" << threads;
      } catch (const fault::InjectedFault& e) {
        EXPECT_EQ(e.site(), "ml.session.step");
        ++failed;
      }
    }
    EXPECT_EQ(failed, 1u) << threads << " threads";
    // Post-fault traffic still decodes bit-identically.
    EXPECT_EQ(scheduler.submit(srcs[0], 64)->wait(), reference[0]);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.served, srcs.size());
  }
}

TEST_F(DeterminismTest, SchedulerRoundFaultFailsRoundButThreadSurvives) {
  const ml::InferenceEngine& engine = model().engine();
  const auto src = model().tokenizer().encode(
      builder_->encoder_text(campaign_targets(1)[0]));
  const auto reference = engine.greedy_decode(src, 64);

  fault::ScopedFaults faults("ml.scheduler.round:once=2");
  ml::DecodeScheduler scheduler(engine);
  std::vector<std::shared_ptr<ml::DecodeScheduler::Ticket>> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(scheduler.submit(src, 64));

  // A round-level fault is not attributable to any one request: every ticket
  // that round was carrying fails with the round's error, tickets admitted
  // later decode normally.  How many rounds each ticket saw is timing, so
  // race-tolerantly: every ticket resolves exactly once, as served (round 2
  // happened after it finished — impossible here with a 64-token budget, but
  // the contract is the point) or failed with the round site in the message.
  size_t failed = 0;
  for (auto& t : tickets) {
    try {
      EXPECT_EQ(t->wait(), reference);
    } catch (const fault::InjectedFault& e) {
      EXPECT_EQ(e.site(), "ml.scheduler.round");
      ++failed;
    }
  }
  EXPECT_GE(failed, 1u);

  // The scheduler thread survived the failed round: new traffic serves.
  EXPECT_EQ(scheduler.submit(src, 64)->wait(), reference);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, tickets.size() + 1);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.served + stats.failed + stats.cancelled, stats.submitted);
}

TEST_F(DeterminismTest, CampaignServerRetriesTransientConvergenceError) {
  const auto targets = campaign_targets(4);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  // Hit 2 of the Stage-II submit site fires once, as a ConvergenceError —
  // the transient class.  WHICH campaign claims it is racy; the retry must
  // recover it regardless, because campaigns are hermetic.
  fault::ScopedFaults faults("core.predict.submit:once=2");
  CampaignServer::Options sopt;
  sopt.workers = 3;
  sopt.max_retries = 2;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, opt}));

  int total_retries = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CampaignResult& res = jobs[i]->wait();
    ASSERT_EQ(res.status, CampaignStatus::Served)
        << "campaign " << i << ": " << res.error;
    expect_same_outcome(res.outcome, reference[i]);
    total_retries += res.retries;
  }
  EXPECT_EQ(total_retries, 1);

  const auto stats = server.stats();
  EXPECT_EQ(stats.served, jobs.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST_F(DeterminismTest, CampaignServerTransientFailureExhaustsRetryBudget) {
  const auto targets = campaign_targets(1);
  const auto opt = campaign_options();

  // Every Stage-II submit fails: with max_retries=2 the job runs 3 times
  // (initial + 2 retries) and then resolves Failed with the budget in the
  // error message.  Exactly-once accounting must survive the requeues.
  fault::ScopedFaults faults("core.predict.submit:every=1");
  CampaignServer::Options sopt;
  sopt.workers = 2;
  sopt.max_retries = 2;
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  auto job = server.submit({"5T-OTA", targets[0], opt});
  const CampaignResult& res = job->wait();
  ASSERT_EQ(res.status, CampaignStatus::Failed);
  EXPECT_EQ(res.retries, 2);
  EXPECT_NE(res.error.find("transient"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("2/2 retries"), std::string::npos) << res.error;

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.recovered, 0u);
}

TEST_F(DeterminismTest, CampaignServerFailedJobCarriesSiteDiagnostics) {
  const auto targets = campaign_targets(2);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  // One worker makes pickup order FIFO: hit 1 is deterministically job 0.
  fault::ScopedFaults faults("serve.worker.campaign:once=1");
  CampaignServer::Options sopt;
  sopt.workers = 1;
  sopt.max_retries = 2;  // permanent faults must NOT consume retries
  CampaignServer server(sopt);
  server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_);

  auto poisoned = server.submit({"5T-OTA", targets[0], opt});
  auto clean = server.submit({"5T-OTA", targets[1], opt});

  const CampaignResult& bad = poisoned->wait();
  ASSERT_EQ(bad.status, CampaignStatus::Failed);
  EXPECT_EQ(bad.retries, 0);
  // The error names the exception type, the site, and the failing layer.
  EXPECT_NE(bad.error.find("InjectedFault"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("serve.worker.campaign"), std::string::npos)
      << bad.error;
  EXPECT_NE(bad.error.find("layer 'serve'"), std::string::npos) << bad.error;

  const CampaignResult& good = clean->wait();
  ASSERT_EQ(good.status, CampaignStatus::Served) << good.error;
  expect_same_outcome(good.outcome, reference[1]);

  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.retried, 0u);
}

TEST_F(DeterminismTest, CampaignServerPoisonedCampaignFailsAloneAcrossWorkerCounts) {
  const auto targets = campaign_targets(5);
  const auto opt = campaign_options();
  const auto reference = serial_outcomes(targets, opt);

  struct Case {
    const char* spec;
    const char* site;
  };
  // The satellite pair: a session poisoned at encode, and one poisoned
  // mid-decode.  Both surface through Ticket::wait into the campaign worker
  // as InjectedFault — a permanent failure carrying its site.
  for (const Case c : {Case{"ml.session.encode:once=1", "ml.session.encode"},
                       Case{"ml.session.step:once=4", "ml.session.step"}}) {
    for (int workers : {1, 3, 8}) {
      fault::ScopedFaults faults(c.spec);
      CampaignServer::Options sopt;
      sopt.workers = workers;
      CampaignServer server(sopt);
      server.register_topology("5T-OTA", *topo_, *tech_, *model_, luts_,
                               {.max_batch = 4});

      std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
      for (const auto& t : targets) {
        jobs.push_back(server.submit({"5T-OTA", t, opt}));
      }

      // WHICH campaign claims the firing hit is scheduling; the contract is
      // that exactly one fails, carrying the site, and every survivor is
      // bit-identical to the fault-free serial copilot.
      size_t failed = 0;
      for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignResult& res = jobs[i]->wait();
        if (res.status == CampaignStatus::Failed) {
          EXPECT_NE(res.error.find(c.site), std::string::npos) << res.error;
          ++failed;
        } else {
          ASSERT_EQ(res.status, CampaignStatus::Served)
              << "campaign " << i << " workers " << workers << ": " << res.error;
          expect_same_outcome(res.outcome, reference[i]);
        }
      }
      EXPECT_EQ(failed, 1u) << c.spec << " workers " << workers;

      const auto stats = server.stats();
      EXPECT_EQ(stats.submitted, jobs.size());
      EXPECT_EQ(stats.failed, 1u);
      EXPECT_EQ(stats.served, jobs.size() - 1);
      EXPECT_EQ(stats.cancelled, 0u);
    }
  }
}

}  // namespace
}  // namespace ota::serve
