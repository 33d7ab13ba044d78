#include "core/sizing_model.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace ota::core {

using nlp::TokenId;
using nlp::Vocabulary;

namespace {

// Model-file config header, version 2: an explicit field-by-field layout
// behind a magic/version tag.
constexpr char kModelMagicV2[8] = {'o', 't', 'a', 's', 'm', 'd', 'l', '2'};

template <typename T>
void write_field(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool read_field(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(is);
}

bool config_is_plausible(const ml::TransformerConfig& cfg) {
  return cfg.vocab_size > 0 && cfg.vocab_size <= (1 << 24) &&
         cfg.d_model > 0 && cfg.d_model <= (1 << 16) &&
         cfg.n_heads > 0 && cfg.n_heads <= 1024 &&
         cfg.d_model % cfg.n_heads == 0 &&
         cfg.n_layers > 0 && cfg.n_layers <= 1024 &&
         cfg.d_ff > 0 && cfg.d_ff <= (1 << 20) &&
         cfg.max_len > 0 && cfg.max_len <= (1 << 24) &&
         // The positional table is computed, not stored, so the file size
         // cannot bound it: cap it at 2^24 entries (128 MB of doubles).
         cfg.max_len * cfg.d_model <= (1 << 24) &&
         cfg.dropout >= 0.0 && cfg.dropout < 1.0;
}

/// Lower bound on the bytes Transformer::save writes for `cfg`: the weight
/// matrices alone (biases and norms left out), so it never refuses a file
/// the Transformer would load.  Cannot overflow once config_is_plausible
/// holds.
int64_t min_weight_bytes(const ml::TransformerConfig& cfg) {
  const int64_t d = cfg.d_model;
  // Two embeddings plus the output head, then per encoder/decoder layer
  // pair 4 + 8 attention projections of d x d and two FFNs.
  const int64_t weights = 3 * cfg.vocab_size * d +
                          cfg.n_layers * (12 * d * d + 4 * d * cfg.d_ff);
  return weights * static_cast<int64_t>(sizeof(double));
}

}  // namespace

std::vector<double> SizingModel::target_weights(const std::vector<TokenId>& tgt,
                                                double numeric_weight) const {
  // One weight per target token plus the trailing <eos>.
  std::vector<double> w;
  w.reserve(tgt.size() + 1);
  for (TokenId id : tgt) {
    const std::string& piece = tokenizer_.vocab().piece(id);
    w.push_back(nlp::is_numeric_token(piece) ? numeric_weight : 1.0);
  }
  w.push_back(1.0);  // <eos>
  return w;
}

TrainHistory SizingModel::train(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const TrainOptions& opt, par::ThreadPool& pool) {
  if (pairs.empty()) throw InvalidArgument("SizingModel::train: no examples");
  // Drop any previous model first: a throw below must leave the object
  // cleanly untrained, never half-trained or serving a stale engine.
  model_.reset();
  engine_.reset();
  opt_ = opt;
  const auto t0 = std::chrono::steady_clock::now();

  // Tokenizer trained over both sides of the corpus.
  std::vector<std::string> corpus;
  corpus.reserve(pairs.size() * 2);
  for (const auto& [e, d] : pairs) {
    corpus.push_back(e);
    corpus.push_back(d);
  }
  tokenizer_ = nlp::BpeTokenizer::train(corpus, {.num_merges = opt.bpe_merges});

  // Pre-encode everything once.
  std::vector<ml::TrainExample> examples;
  examples.reserve(pairs.size());
  for (const auto& [e, d] : pairs) {
    ml::TrainExample ex;
    ex.src = tokenizer_.encode(e);
    ex.tgt = tokenizer_.encode(d);
    ex.weights = target_weights(ex.tgt, opt.numeric_weight);
    examples.push_back(std::move(ex));
  }

  ml::TransformerConfig cfg;
  cfg.vocab_size = static_cast<int64_t>(tokenizer_.vocab().size());
  cfg.d_model = opt.d_model;
  cfg.n_heads = opt.n_heads;
  cfg.n_layers = opt.n_layers;
  cfg.d_ff = opt.d_ff;
  cfg.max_len = opt.max_len;
  cfg.dropout = opt.dropout;
  cfg.seed = opt.seed;
  // Train on a local model and only adopt it (model_/engine_) once training
  // finished; a mid-epoch throw then truly leaves the object untrained.
  auto model = std::make_unique<ml::Transformer>(cfg);

  ml::AdamOptions aopt;
  aopt.lr = opt.lr;
  ml::Adam adam(model->parameters(), aopt);
  // The batch size caps useful parallelism (and thus the replica count): a
  // minibatch can never occupy more workers than it has examples.
  ml::DataParallelTrainer trainer(*model, adam, std::max(1, opt.batch_size),
                                  pool);

  // All coordinator-side randomness (the split and the per-epoch shuffles)
  // stays on this one Rng; dropout draws live on per-example counted streams
  // inside the trainer, so the trajectory cannot depend on the thread count.
  Rng rng(opt.seed ^ 0xBADC0DE);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng.engine());
  const size_t n_val = std::min(
      examples.size() / 2,
      static_cast<size_t>(opt.val_fraction * static_cast<double>(examples.size())));
  const std::vector<size_t> val_idx(order.begin(), order.begin() + static_cast<long>(n_val));
  std::vector<size_t> train_idx(order.begin() + static_cast<long>(n_val), order.end());

  std::vector<const ml::TrainExample*> val_batch;
  val_batch.reserve(val_idx.size());
  for (size_t idx : val_idx) val_batch.push_back(&examples[idx]);

  const uint64_t dropout_seed = opt.seed ^ 0xD20990D5EEDULL;
  uint64_t stream = 0;  // global example counter: one dropout stream each

  TrainHistory hist;
  hist.threads = trainer.threads();
  std::vector<const ml::TrainExample*> batch;
  batch.reserve(static_cast<size_t>(std::max(1, opt.batch_size)));
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    std::shuffle(train_idx.begin(), train_idx.end(), rng.engine());
    double total = 0.0;
    const size_t bsz = static_cast<size_t>(std::max(1, opt.batch_size));
    for (size_t b0 = 0; b0 < train_idx.size(); b0 += bsz) {
      const size_t b1 = std::min(train_idx.size(), b0 + bsz);
      batch.clear();
      for (size_t i = b0; i < b1; ++i) batch.push_back(&examples[train_idx[i]]);
      total += trainer.train_batch(batch, dropout_seed, stream);
      stream += batch.size();
    }
    const double train_loss = total / static_cast<double>(train_idx.size());
    hist.train_loss.push_back(train_loss);

    double vloss = train_loss;
    if (!val_batch.empty()) {
      vloss = trainer.eval_sum(val_batch) / static_cast<double>(val_batch.size());
    }
    hist.val_loss.push_back(vloss);
    adam.observe_loss(vloss);
    if (opt.verbose) {
      std::fprintf(stderr, "[train] epoch %d/%d  train %.4f  val %.4f  lr %.2e\n",
                   epoch + 1, opt.epochs, train_loss, vloss, adam.learning_rate());
    }
  }
  hist.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0).count();
  model_ = std::move(model);
  engine_ = std::make_unique<ml::InferenceEngine>(*model_);
  return hist;
}

std::string SizingModel::predict(const std::string& encoder_text,
                                 int max_tokens,
                                 const CancelToken& /*cancel*/) const {
  if (!engine_) throw InvalidArgument("SizingModel::predict: not trained");
  const auto src = tokenizer_.encode(encoder_text);
  const auto out = engine_->greedy_decode(src, max_tokens);
  return tokenizer_.decode(out);
}

std::vector<std::string> SizingModel::predict_batch(
    const std::vector<std::string>& encoder_texts, int max_tokens,
    ml::Precision precision, par::ThreadPool& pool) const {
  ml::validated_precision(precision, "SizingModel::predict_batch");
  // An empty batch has exactly one correct answer and needs no model for it;
  // returning it up front keeps degenerate sweeps (0 validation designs, a
  // drained campaign queue) from tripping over engine state.
  if (encoder_texts.empty()) return {};
  if (!engine_) throw InvalidArgument("SizingModel::predict_batch: not trained");
  std::vector<std::vector<TokenId>> srcs;
  srcs.reserve(encoder_texts.size());
  for (const std::string& text : encoder_texts) {
    srcs.push_back(tokenizer_.encode(text));
  }
  const auto decoded =
      engine_->greedy_decode_batch(srcs, max_tokens, precision, pool);
  std::vector<std::string> out;
  out.reserve(decoded.size());
  for (const auto& tokens : decoded) out.push_back(tokenizer_.decode(tokens));
  return out;
}

const nlp::BpeTokenizer& SizingModel::tokenizer() const {
  if (!model_) throw InvalidArgument("SizingModel: not trained");
  return tokenizer_;
}

const ml::Transformer& SizingModel::transformer() const {
  if (!model_) throw InvalidArgument("SizingModel: not trained");
  return *model_;
}

const ml::InferenceEngine& SizingModel::engine() const {
  if (!engine_) throw InvalidArgument("SizingModel: not trained");
  return *engine_;
}

void SizingModel::save(const std::string& prefix) const {
  if (!model_) throw InvalidArgument("SizingModel::save: not trained");
  std::ofstream bpe(prefix + ".bpe");
  bpe << tokenizer_.serialize();
  if (!bpe.flush()) {
    throw Error("SizingModel::save: cannot write " + prefix + ".bpe");
  }
  std::ofstream mdl(prefix + ".model", std::ios::binary);
  const auto& cfg = model_->config();
  mdl.write(kModelMagicV2, sizeof kModelMagicV2);
  write_field(mdl, cfg.vocab_size);
  write_field(mdl, cfg.d_model);
  write_field(mdl, cfg.n_heads);
  write_field(mdl, cfg.n_layers);
  write_field(mdl, cfg.d_ff);
  write_field(mdl, cfg.max_len);
  write_field(mdl, cfg.dropout);
  write_field(mdl, cfg.seed);
  model_->save(mdl);
  if (!mdl.flush()) {
    throw Error("SizingModel::save: cannot write " + prefix + ".model");
  }
}

bool SizingModel::load(const std::string& prefix) {
  std::ifstream bpe(prefix + ".bpe");
  std::ifstream mdl(prefix + ".model", std::ios::binary);
  if (!bpe || !mdl) return false;
  // As in train(): a throw below (corrupt file) must not leave a previous
  // model's engine paired with a new tokenizer.
  model_.reset();
  engine_.reset();
  std::stringstream ss;
  ss << bpe.rdbuf();
  tokenizer_ = nlp::BpeTokenizer::deserialize(ss.str());

  ml::TransformerConfig cfg;
  char magic[8] = {};
  mdl.read(magic, sizeof magic);
  if (!mdl || !std::equal(magic, magic + 8, kModelMagicV2)) {
    throw InvalidArgument("SizingModel::load: " + prefix +
                          ".model is not a v2 model file (magic 'otasmdl2'); "
                          "re-train and re-save the model");
  }
  if (!read_field(mdl, cfg.vocab_size) || !read_field(mdl, cfg.d_model) ||
      !read_field(mdl, cfg.n_heads) || !read_field(mdl, cfg.n_layers) ||
      !read_field(mdl, cfg.d_ff) || !read_field(mdl, cfg.max_len) ||
      !read_field(mdl, cfg.dropout) || !read_field(mdl, cfg.seed)) {
    throw InvalidArgument("SizingModel::load: truncated v2 config header in " +
                          prefix + ".model");
  }
  if (!config_is_plausible(cfg)) {
    throw InvalidArgument("SizingModel::load: corrupt v2 config header in " +
                          prefix + ".model");
  }
  // Refuse before allocating: the header must not size a model whose
  // weights the file cannot hold.
  const std::streamoff header_end = mdl.tellg();
  mdl.seekg(0, std::ios::end);
  const std::streamoff bytes_left = mdl.tellg() - header_end;
  mdl.seekg(header_end);
  if (min_weight_bytes(cfg) > bytes_left) {
    throw InvalidArgument("SizingModel::load: the v2 config header in " +
                          prefix + ".model declares more weights than the "
                          "file holds");
  }
  model_ = std::make_unique<ml::Transformer>(cfg);
  model_->load(mdl);
  engine_ = std::make_unique<ml::InferenceEngine>(*model_);
  return true;
}

}  // namespace ota::core
