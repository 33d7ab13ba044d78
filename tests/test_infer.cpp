// InferenceEngine tests: the bit-identity contract between the autograd-free
// KV-cache engine and the Var-based reference path, group-step semantics,
// the positional-table guard rails, and the versioned model-file format.
// Batch decoding through DecodeScheduler is tested in test_serve.cpp.
#include "ml/infer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

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
  // prefix.  The untrained model's widths (18, 30) are not multiples of a
  // column panel (4 doubles), so every projection has a column tail.
  TransformerConfig odd_cfg = tiny_config(3);
  odd_cfg.d_model = 18;
  odd_cfg.d_ff = 30;
  const Transformer odd(odd_cfg);
  for (const Transformer* reference : {&trained_model(5, 60), &odd}) {
    const Transformer& model = *reference;
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
}

/// Logits rows compared as bytes: the group contract is bit identity.
bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(InferenceEngine, GroupStepMatchesEachSessionAlone) {
  // A group step stacks its rows for every weight matrix; each row must
  // still get, byte for byte, the logits of its session stepped alone.  The
  // rows differ in prompt length and position (session i is stepped i times
  // alone first), span a full tile and a partial one, and include a session
  // already at max_len, whose row fails alone.
  TransformerConfig wide_cfg = tiny_config(11, /*max_len=*/12);
  wide_cfg.d_model = 48;
  wide_cfg.n_heads = 4;
  wide_cfg.d_ff = 96;
  const Transformer wide(wide_cfg);
  for (const Transformer* model : {&trained_model(5, 60), &wide}) {
    const InferenceEngine engine(*model);
    const int64_t max_len = model->config().max_len;
    for (const Precision tier : {Precision::kDouble, Precision::kFloat32}) {
      std::vector<InferenceEngine::Session> sessions;
      std::vector<TokenId> fed;
      for (size_t i = 0; i < 6; ++i) {
        sessions.emplace_back(engine, probe_sources()[i + 2], tier);
        for (size_t k = 0; k < i; ++k) {
          (void)sessions.back().step(static_cast<TokenId>(4 + (i + k) % 6));
        }
        fed.push_back(static_cast<TokenId>(4 + i % 6));
      }
      sessions.emplace_back(engine, probe_sources()[0], tier);
      for (int64_t k = 0; k < max_len; ++k) (void)sessions.back().step(5);
      fed.push_back(5);
      const size_t full = sessions.size() - 1;  // the row at max_len

      // Reference: a copy of each session stepped alone.
      std::vector<Tensor> alone;
      for (size_t i = 0; i < full; ++i) {
        InferenceEngine::Session copy = sessions[i];
        alone.push_back(copy.step(fed[i]));
      }
      const Tensor last_logits = sessions[full].logits();

      // The same rows as one group, in order and reversed, on fresh copies.
      for (const bool reversed : {false, true}) {
        std::vector<InferenceEngine::Session> group = sessions;
        std::vector<std::vector<TokenId>> tokens;
        for (const TokenId t : fed) tokens.push_back({t});
        std::vector<InferenceEngine::GreedyRow> rows;
        for (size_t i = 0; i < group.size(); ++i) {
          rows.emplace_back(&group[i], &tokens[i], max_len);
        }
        if (reversed) std::reverse(rows.begin(), rows.end());
        InferenceEngine::Session::greedy_step_group(rows);
        for (const InferenceEngine::GreedyRow& row : rows) {
          const size_t i = static_cast<size_t>(row.session - group.data());
          if (i == full) {
            EXPECT_FALSE(row.live);
            ASSERT_TRUE(row.error);
            EXPECT_THROW(std::rethrow_exception(row.error), InvalidArgument);
            EXPECT_TRUE(same_bytes(group[i].logits(), last_logits));
            EXPECT_EQ(group[i].length(), max_len);
            continue;
          }
          EXPECT_FALSE(row.error) << "row " << i;
          EXPECT_TRUE(same_bytes(group[i].logits(), alone[i]))
              << "row " << i << " tier " << static_cast<int>(tier)
              << " d_model " << model->config().d_model
              << (reversed ? " reversed" : "");
          EXPECT_EQ(group[i].length(), sessions[i].length() + 1);
        }
      }
    }
  }
}

TEST(InferenceEngine, BatchRejectsNonpositiveTokenBudget) {
  // A zero/negative budget would silently decode nothing; greedy_decode
  // refuses it with a readable error instead, at either tier.  (A batch
  // decodes through DecodeScheduler, whose submit() refuses it the same
  // way: DeterminismTest.SchedulerRejectsBadSubmissions.)
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
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

TEST(InferenceEngine, ForgedPrecisionIsRefused) {
  // An out-of-range Precision (static_cast from a config knob) must be
  // refused at the door — session construction, so every greedy_decode —
  // not silently treated as one of the tiers.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto forged = static_cast<Precision>(7);
  EXPECT_THROW(InferenceEngine::Session(engine, {4, 5}, forged),
               InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode({4, 5}, 8, forged), InvalidArgument);
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

TEST(SizingModelInfer, EnginePredictionMatchesReferenceTransformer) {
  const SizingModel& model = trained_sizing_model();
  const std::string text = "gain=45 bw=17";
  const auto src = model.tokenizer().encode(text);
  EXPECT_EQ(model.engine().greedy_decode(src, 64),
            model.transformer().greedy_decode(src, 64));
  // Decoding zero tokens is always a caller bug.
  EXPECT_THROW((void)model.predict(text, 0), InvalidArgument);
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

TEST(SizingModelInfer, LoadRejectsTokenizerOfAnotherModel) {
  // save() writes .bpe before .model, so a failed .model write leaves a
  // tokenizer beside a model it was not trained with.  Two models trained
  // with different merge budgets, their .bpe files swapped: each load must
  // refuse the pair, naming both vocabulary sizes, instead of loading a
  // model whose first predict indexes past its embedding table.
  const SizingModel& a = trained_sizing_model();
  SizingModel b;
  {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 4; ++i) {
      pairs.emplace_back("gain=" + std::to_string(40 + i),
                         "gmM1=" + std::to_string(1 + i) + "e-3");
    }
    TrainOptions opt;
    opt.epochs = 1;
    opt.d_model = 8;
    opt.n_heads = 2;
    opt.n_layers = 1;
    opt.d_ff = 16;
    opt.bpe_merges = 4;
    opt.max_len = 64;
    b.train(pairs, opt);
  }
  const size_t vocab_a = a.tokenizer().vocab().size();
  const size_t vocab_b = b.tokenizer().vocab().size();
  ASSERT_NE(vocab_a, vocab_b);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string pa = (dir / "ota_infer_swap_a").string();
  const std::string pb = (dir / "ota_infer_swap_b").string();
  a.save(pa);
  b.save(pb);
  std::filesystem::rename(pa + ".bpe", pa + ".tmp");
  std::filesystem::rename(pb + ".bpe", pa + ".bpe");
  std::filesystem::rename(pa + ".tmp", pb + ".bpe");

  for (const auto& [prefix, bpe_vocab, model_vocab] :
       {std::tuple{pa, vocab_b, vocab_a}, std::tuple{pb, vocab_a, vocab_b}}) {
    SizingModel loaded;
    try {
      (void)loaded.load(prefix);
      ADD_FAILURE() << prefix << ": a mismatched .bpe/.model pair loaded";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(bpe_vocab) + " tokens"),
                std::string::npos) << what;
      EXPECT_NE(what.find("vocab_size " + std::to_string(model_vocab)),
                std::string::npos) << what;
    }
    EXPECT_FALSE(loaded.trained());
  }
  for (const std::string& prefix : {pa, pb}) {
    std::remove((prefix + ".bpe").c_str());
    std::remove((prefix + ".model").c_str());
  }
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
