// InferenceEngine tests: the bit-identity contract between the autograd-free
// KV-cache engine and the Var-based reference path, batch semantics, the
// positional-table guard rails, and the versioned model-file format.
#include "ml/infer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <map>
#include <utility>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sizing_model.hpp"
#include "ml/adam.hpp"

namespace ota::ml {
namespace {

using nlp::TokenId;
using nlp::Vocabulary;

TransformerConfig tiny_config(uint64_t seed, int64_t max_len = 64) {
  TransformerConfig c;
  c.vocab_size = 10;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_len = max_len;
  c.dropout = 0.0;
  c.seed = seed;
  return c;
}

/// Trains a tiny copy-task model (enough structure for nontrivial decoding).
/// Results are cached per (seed, epochs) so suites sharing a model train it
/// once.
const Transformer& trained_model(uint64_t seed, int epochs) {
  static std::map<std::pair<uint64_t, int>, std::unique_ptr<Transformer>> cache;
  auto& slot = cache[{seed, epochs}];
  if (slot) return *slot;
  auto model = std::make_unique<Transformer>(tiny_config(seed));
  AdamOptions aopt;
  aopt.lr = 3e-3;
  Adam adam(model->parameters(), aopt);
  Rng rng(seed);
  const std::vector<std::vector<TokenId>> seqs{
      {4, 5, 6, 7}, {5, 4, 7, 6}, {6, 7, 4, 5}, {7, 6, 5, 4}};
  const std::vector<double> weights(5, 1.0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& s : seqs) {
      const Var l = model->loss(s, s, weights, rng);
      backward(l);
      adam.step();
    }
  }
  slot = std::move(model);
  return *slot;
}

const std::vector<std::vector<TokenId>>& probe_sources() {
  // Trained patterns, permutations the model never saw, and degenerate
  // lengths: greedy decoding must agree on all of them.
  static const std::vector<std::vector<TokenId>> srcs{
      {4, 5, 6, 7}, {5, 4, 7, 6}, {6, 7, 4, 5}, {7, 6, 5, 4},
      {4, 4, 4, 4}, {7, 5}, {6}, {5, 6, 7, 4, 5, 6, 7, 4}};
  return srcs;
}

TEST(InferenceEngine, GreedyMatchesReferenceOnTrainedModels) {
  // The property the whole refactor rests on: for every trained model the
  // engine sees, greedy output is token-for-token identical to the
  // Var-based reference.  Three differently-seeded/-converged models plus
  // an untrained one exercise sharp and diffuse logit landscapes.
  struct Case {
    uint64_t seed;
    int epochs;
  };
  for (const Case& c : {Case{5, 60}, Case{9, 110}, Case{13, 25}, Case{21, 0}}) {
    const Transformer& model = trained_model(c.seed, c.epochs);
    const InferenceEngine engine(model);
    for (const auto& src : probe_sources()) {
      EXPECT_EQ(engine.greedy_decode(src, 16), model.greedy_decode(src, 16))
          << "seed " << c.seed << " epochs " << c.epochs;
    }
  }
}

TEST(InferenceEngine, IncrementalLogitsMatchFullRecompute) {
  // The KV cache makes each step one-row work; the logits it produces must
  // equal, bit for bit, those of re-running the full decoder over the whole
  // prefix.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  Rng rng(0);
  for (const auto& src : probe_sources()) {
    const Var memory = model.encode(src, /*training=*/false, rng);
    InferenceEngine::Session session(engine, src);
    std::vector<TokenId> prefix{Vocabulary::kBos};
    for (int step = 0; step < 8; ++step) {
      const Tensor& incremental = session.step(prefix.back());
      const Var full = model.decode(memory, prefix, /*training=*/false, rng);
      const int64_t last = full->value.rows() - 1;
      ASSERT_EQ(incremental.cols(), full->value.cols());
      for (int64_t c = 0; c < incremental.cols(); ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(incremental(0, c)),
                  std::bit_cast<uint64_t>(full->value(last, c)))
            << "step " << step << " column " << c << ": "
            << incremental(0, c) << " vs " << full->value(last, c);
      }
      // Continue along the greedy path.
      TokenId best = 0;
      double best_score = -1e300;
      for (int64_t c = 0; c < incremental.cols(); ++c) {
        if (incremental(0, c) > best_score) {
          best_score = incremental(0, c);
          best = static_cast<TokenId>(c);
        }
      }
      prefix.push_back(best);
    }
  }
}

TEST(InferenceEngine, BatchOfOneEqualsSingle) {
  const Transformer& model = trained_model(9, 110);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    const auto batch = engine.greedy_decode_batch({src}, 16);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], engine.greedy_decode(src, 16));
  }
}

TEST(InferenceEngine, BatchBitIdenticalAcrossThreadCounts) {
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto& srcs = probe_sources();
  par::ThreadPool pool1(1), pool8(8);
  const auto serial =
      engine.greedy_decode_batch(srcs, 16, Precision::kDouble, pool1);
  const auto wide =
      engine.greedy_decode_batch(srcs, 16, Precision::kDouble, pool8);
  ASSERT_EQ(serial.size(), srcs.size());
  EXPECT_EQ(serial, wide);
}

TEST(InferenceEngine, BatchRejectsNonpositiveTokenBudget) {
  // A zero/negative budget on a non-empty batch would silently decode
  // nothing; the engine refuses it with a readable error instead.  An empty
  // batch is a no-op whatever the budget.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  par::ThreadPool pool8(8);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, 0), InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, -7,
                                                Precision::kDouble, pool8),
               InvalidArgument);
  EXPECT_TRUE(engine.greedy_decode_batch({}, 0).empty());
  // The single decode refuses it the same way, at either tier.
  EXPECT_THROW((void)engine.greedy_decode({4, 5}, 0), InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode({4, 5}, -7, Precision::kFloat32),
               InvalidArgument);
}

TEST(InferenceEngine, EncoderInputLongerThanTableThrows) {
  const Transformer model(tiny_config(7, /*max_len=*/8));
  const InferenceEngine engine(model);
  const std::vector<TokenId> too_long(9, 4);
  EXPECT_THROW((void)model.greedy_decode(too_long, 4), InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode(too_long, 4), InvalidArgument);
}

TEST(InferenceEngine, DecodeBudgetClampedToTable) {
  // A generous token budget must not index past the positional table: both
  // paths clamp to max_len and stay in agreement.
  const Transformer model(tiny_config(7, /*max_len=*/8));
  const InferenceEngine engine(model);
  const std::vector<TokenId> src{4, 5, 6};
  const auto reference = model.greedy_decode(src, 1000);
  const auto fast = engine.greedy_decode(src, 1000);
  EXPECT_LE(reference.size(), 8u);
  EXPECT_EQ(fast, reference);
}

TEST(InferenceEngine, SessionRefusesStepsPastTable) {
  const Transformer model(tiny_config(7, /*max_len=*/4));
  const InferenceEngine engine(model);
  InferenceEngine::Session session(engine, {4, 5});
  TokenId tok = Vocabulary::kBos;
  for (int i = 0; i < 4; ++i) (void)session.step(tok);
  EXPECT_THROW((void)session.step(tok), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Float32 tier

TEST(InferenceEngine, F32GreedyAgreesWithDoubleOnTrainedModels) {
  // The agreement gate the fast tier ships under: on trained models (sharp
  // logit landscapes) the float32 tier's token streams must be identical to
  // the double reference.  The untrained seed-21 model is deliberately
  // absent — diffuse, near-tied logits are exactly where a narrowed tier may
  // legitimately pick a different argmax, and nothing serves untrained
  // models.
  struct Case {
    uint64_t seed;
    int epochs;
  };
  for (const Case& c : {Case{5, 60}, Case{9, 110}, Case{13, 25}}) {
    const Transformer& model = trained_model(c.seed, c.epochs);
    const InferenceEngine engine(model);
    for (const auto& src : probe_sources()) {
      EXPECT_EQ(engine.greedy_decode(src, 16, Precision::kFloat32),
                engine.greedy_decode(src, 16, Precision::kDouble))
          << "seed " << c.seed << " epochs " << c.epochs;
    }
  }
}

TEST(InferenceEngine, F32LogitsTrackDoubleWithinFloatTolerance) {
  // Kernel-level accuracy bound: along the double tier's greedy path, the
  // f32 session's widened logits must track the double logits to float
  // precision (relative, compounding across 2 layers of norms and attention).
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    InferenceEngine::Session ref(engine, src, Precision::kDouble);
    InferenceEngine::Session fast(engine, src, Precision::kFloat32);
    EXPECT_EQ(fast.precision(), Precision::kFloat32);
    TokenId prev = Vocabulary::kBos;
    for (int step = 0; step < 8; ++step) {
      const Tensor& want = ref.step(prev);
      const Tensor& got = fast.step(prev);
      ASSERT_EQ(got.cols(), want.cols());
      for (int64_t c = 0; c < want.cols(); ++c) {
        const double scale = std::max(1.0, std::abs(want(0, c)));
        ASSERT_NEAR(got(0, c), want(0, c), 1e-3 * scale)
            << "step " << step << " column " << c;
      }
      prev = argmax_token(want);
    }
  }
}

TEST(InferenceEngine, F32EncodeTracksDoubleEncode) {
  const Transformer& model = trained_model(9, 110);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    const Tensor want = engine.encode(src);
    const TensorF got = engine.encode_f32(src);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (int64_t i = 0; i < want.size(); ++i) {
      const double scale = std::max(1.0, std::abs(want.at(i)));
      ASSERT_NEAR(static_cast<double>(got.at(i)), want.at(i), 1e-3 * scale)
          << "flat index " << i;
    }
  }
}

TEST(InferenceEngine, F32BatchBitIdenticalAcrossThreadCounts) {
  // Same determinism property the double tier holds: the f32 batch result
  // must not depend on pool width (sessions are private, kernels serial).
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto& srcs = probe_sources();
  par::ThreadPool pool1(1), pool8(8);
  const auto serial =
      engine.greedy_decode_batch(srcs, 16, Precision::kFloat32, pool1);
  const auto wide =
      engine.greedy_decode_batch(srcs, 16, Precision::kFloat32, pool8);
  ASSERT_EQ(serial.size(), srcs.size());
  EXPECT_EQ(serial, wide);
}

TEST(InferenceEngine, ForgedPrecisionIsRefused) {
  // An out-of-range Precision (static_cast from a config knob) must be
  // refused at the door — session construction and the batch entry point —
  // not silently treated as one of the tiers.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto forged = static_cast<Precision>(7);
  EXPECT_THROW(InferenceEngine::Session(engine, {4, 5}, forged),
               InvalidArgument);
  par::ThreadPool pool1(1);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, 8, forged, pool1),
               InvalidArgument);
}

}  // namespace
}  // namespace ota::ml

namespace ota::core {
namespace {

/// A tiny synthetic text-to-text corpus (no SPICE dataset needed): the model
/// only has to be deterministic, not accurate.  Trained once, shared by
/// every test in the suite.
const SizingModel& trained_sizing_model() {
  static const SizingModel shared = [] {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 12; ++i) {
      pairs.emplace_back(
          "gain=" + std::to_string(40 + i) + " bw=" + std::to_string(10 + i),
          "gmM1=" + std::to_string(1 + i) + "e-3 gdsM1=" +
              std::to_string(2 + i) + "e-5");
    }
    SizingModel model;
    TrainOptions opt;
    opt.epochs = 2;
    opt.d_model = 16;
    opt.n_heads = 2;
    opt.n_layers = 1;
    opt.d_ff = 32;
    opt.bpe_merges = 32;
    opt.max_len = 256;
    model.train(pairs, opt);
    return model;
  }();
  return shared;
}

TEST(SizingModelInfer, PredictBatchBitIdenticalAcrossThreadCounts) {
  const SizingModel& model = trained_sizing_model();
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back("gain=" + std::to_string(41 + i) + " bw=" + std::to_string(12 + i));
  }
  std::vector<std::string> serial;
  for (const auto& t : texts) serial.push_back(model.predict(t, 64));
  par::ThreadPool pool1(1), pool8(8);
  EXPECT_EQ(model.predict_batch(texts, 64, ml::Precision::kDouble, pool1),
            serial);
  EXPECT_EQ(model.predict_batch(texts, 64, ml::Precision::kDouble, pool8),
            serial);
  // The serial path refuses a zero token budget, as the batch path does.
  EXPECT_THROW((void)model.predict(texts[0], 0), InvalidArgument);
}

TEST(SizingModelInfer, PredictBatchPrecisionOverload) {
  // An explicit kDouble IS the default path (bit-identical); the kFloat32
  // tier must be deterministic for any pool width.  Token-level
  // agreement between the tiers is asserted on well-trained models (the ml
  // section above, the DeterminismTest serving suite, bench_infer_tier) —
  // this 2-epoch text model only owes tier determinism.
  const SizingModel& model = trained_sizing_model();
  std::vector<std::string> texts;
  for (int i = 0; i < 4; ++i) {
    texts.push_back("gain=" + std::to_string(42 + i) +
                    " bw=" + std::to_string(13 + i));
  }
  par::ThreadPool pool1(1), pool8(8);
  EXPECT_EQ(model.predict_batch(texts, 64, ml::Precision::kDouble, pool1),
            model.predict_batch(texts, 64));
  const auto f32_serial =
      model.predict_batch(texts, 64, ml::Precision::kFloat32, pool1);
  EXPECT_EQ(model.predict_batch(texts, 64, ml::Precision::kFloat32, pool8),
            f32_serial);
  EXPECT_THROW((void)model.predict_batch(texts, 64,
                                         static_cast<ml::Precision>(3), pool1),
               InvalidArgument);
}

TEST(SizingModelInfer, PredictBatchEmptyInputReturnsEmpty) {
  // The empty batch needs no engine at all — it must work even on an
  // untrained model (degenerate sweeps, drained campaign queues).
  const SizingModel untrained;
  EXPECT_TRUE(untrained.predict_batch({}, 64).empty());
  par::ThreadPool pool8(8);
  EXPECT_TRUE(trained_sizing_model()
                  .predict_batch({}, 64, ml::Precision::kDouble, pool8)
                  .empty());
}

TEST(SizingModelInfer, EnginePredictionMatchesReferenceTransformer) {
  const SizingModel& model = trained_sizing_model();
  const std::string text = "gain=45 bw=17";
  const auto src = model.tokenizer().encode(text);
  EXPECT_EQ(model.engine().greedy_decode(src, 64),
            model.transformer().greedy_decode(src, 64));
}

TEST(SizingModelInfer, SaveLoadRoundTripsV2Format) {
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_v2").string();
  model.save(prefix);
  const std::string expected = model.predict("gain=43 bw=14", 64);

  SizingModel loaded;
  ASSERT_TRUE(loaded.load(prefix));
  EXPECT_EQ(loaded.predict("gain=43 bw=14", 64), expected);
  EXPECT_EQ(loaded.transformer().config().d_model, 16);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, SaveReportsAnUnwritablePath) {
  const SizingModel& model = trained_sizing_model();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ota_infer_no_such_dir";
  std::filesystem::remove_all(dir);
  const std::string prefix = (dir / "model").string();
  try {
    model.save(prefix);
    ADD_FAILURE() << "save into a missing directory returned normally";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(prefix + ".bpe"), std::string::npos)
        << e.what();
  }
  SizingModel loaded;
  EXPECT_FALSE(loaded.load(prefix));
}

/// Writes a v2 model-file header for `cfg` in SizingModel::save's layout.
void write_v2_header(std::ostream& os, const ml::TransformerConfig& cfg) {
  os.write("otasmdl2", 8);
  for (const int64_t f : {cfg.vocab_size, cfg.d_model, cfg.n_heads,
                          cfg.n_layers, cfg.d_ff, cfg.max_len}) {
    os.write(reinterpret_cast<const char*>(&f), sizeof f);
  }
  os.write(reinterpret_cast<const char*>(&cfg.dropout), sizeof cfg.dropout);
  os.write(reinterpret_cast<const char*>(&cfg.seed), sizeof cfg.seed);
}

TEST(SizingModelInfer, LoadRejectsCorruptV2Header) {
  // A well-tagged header with insane fields must fail with a clear error,
  // not reach the Transformer constructor (division by zero heads, huge
  // allocations).
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_corrupt").string();
  {
    std::ofstream bpe(prefix + ".bpe");
    bpe << model.tokenizer().serialize();
  }
  {
    ml::TransformerConfig zero_heads = model.transformer().config();
    zero_heads.n_heads = 0;
    std::ofstream mdl(prefix + ".model", std::ios::binary);
    write_v2_header(mdl, zero_heads);
  }
  SizingModel loaded;
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, LoadRejectsHeadersImplyingUnboundedAllocations) {
  // Each header passes the per-field range checks but sizes the model far
  // beyond what the file justifies.  Load must throw InvalidArgument before
  // allocating, not die with bad_alloc inside the Transformer constructor.
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_unbounded").string();
  {
    std::ofstream bpe(prefix + ".bpe");
    bpe << model.tokenizer().serialize();
  }
  // A 72-byte, header-only file claiming vocab 2^24 x d_model 2^16.
  ml::TransformerConfig huge = model.transformer().config();
  huge.vocab_size = int64_t{1} << 24;
  huge.d_model = int64_t{1} << 16;
  {
    std::ofstream mdl(prefix + ".model", std::ios::binary);
    write_v2_header(mdl, huge);
  }
  SizingModel loaded;
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);

  // The model's own weights behind a header asking for a 2^24-row
  // positional table: the file holds every stored weight, and the table is
  // computed, so only its own bound can refuse it.
  ml::TransformerConfig long_table = model.transformer().config();
  long_table.max_len = int64_t{1} << 24;
  {
    std::ofstream mdl(prefix + ".model", std::ios::binary);
    write_v2_header(mdl, long_table);
    model.transformer().save(mdl);
  }
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, LoadRejectsUnrecognizedModelFile) {
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_bad").string();
  {
    std::ofstream bpe(prefix + ".bpe");
    bpe << model.tokenizer().serialize();
  }
  {
    std::ofstream mdl(prefix + ".model", std::ios::binary);
    mdl << "this is not a model file of any known vintage";
  }
  SizingModel loaded;
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

}  // namespace
}  // namespace ota::core
