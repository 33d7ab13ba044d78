// Stage II-IV integration tests.
//
// The transformer itself is exercised with a deliberately tiny training run
// (mechanics, persistence); copilot behaviour is tested with the
// deterministic nearest-neighbor predictor so the tests stay fast and the
// assertions sharp — on a dense dataset, NN prediction + LUT width estimation
// must reproduce nearby designs and the copilot must converge.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/stats.hpp"
#include "core/copilot.hpp"
#include "core/metrics.hpp"
#include "core/nearest_predictor.hpp"
#include "core/sizing_model.hpp"

namespace ota::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new device::Technology(device::Technology::default65nm());
    topo_ = new circuit::Topology(circuit::make_5t_ota(*tech_));
    DataGenOptions opt;
    opt.target_designs = 120;
    opt.max_attempts = 30000;
    opt.seed = 31;
    dataset_ = new Dataset(generate_dataset(
        *topo_, *tech_, SpecRange::for_topology("5T-OTA"), opt));
    builder_ = new SequenceBuilder(*topo_, *tech_);
    luts_ = new LutSet(LutSet::build(*tech_));
  }
  static void TearDownTestSuite() {
    delete luts_;
    delete builder_;
    delete dataset_;
    delete topo_;
    delete tech_;
  }

  static device::Technology* tech_;
  static circuit::Topology* topo_;
  static Dataset* dataset_;
  static SequenceBuilder* builder_;
  static LutSet* luts_;
};

device::Technology* PipelineTest::tech_ = nullptr;
circuit::Topology* PipelineTest::topo_ = nullptr;
Dataset* PipelineTest::dataset_ = nullptr;
SequenceBuilder* PipelineTest::builder_ = nullptr;
LutSet* PipelineTest::luts_ = nullptr;

TEST_F(PipelineTest, EncoderSpecsRoundTrip) {
  const Specs s{21.4, 13.2e6, 151e6};
  const Specs back = parse_encoder_specs(builder_->encoder_text(s));
  EXPECT_NEAR(back.gain_db, s.gain_db, 0.05);
  EXPECT_NEAR(back.bw_hz, s.bw_hz, s.bw_hz * 0.01);
  EXPECT_NEAR(back.ugf_hz, s.ugf_hz, s.ugf_hz * 0.01);
  EXPECT_THROW(parse_encoder_specs("no spec block here"), InvalidArgument);
}

TEST_F(PipelineTest, NearestNeighborFindsExactMatch) {
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  const Design& d = dataset_->designs[5];
  const Design& found = nn.nearest(d.specs);
  EXPECT_EQ(found.widths, d.widths);
}

TEST_F(PipelineTest, WidthsFromParamsRecoversDatasetWidths) {
  // Stage III on *exact* parameters must reproduce the design's widths.
  const Design& d = dataset_->designs[0];
  std::map<std::string, double> params;
  for (const auto& slot : builder_->slots()) {
    const auto& ss = d.devices.at(slot.device);
    double v = 0.0;
    if (slot.name.rfind("gm", 0) == 0) v = ss.gm;
    else if (slot.name.rfind("gds", 0) == 0) v = ss.gds;
    else if (slot.name.rfind("Cds", 0) == 0) v = ss.cds;
    else if (slot.name.rfind("Cgs", 0) == 0) v = ss.cgs;
    else v = ss.id;
    params[slot.name] = v;
  }
  const auto widths = widths_from_params(*topo_, *tech_, *luts_, params,
                                         std::vector<double>(3, 5e-6));
  ASSERT_EQ(widths.size(), 3u);
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_NEAR(widths[g], d.widths[g], d.widths[g] * 0.06) << "group " << g;
  }
}

TEST_F(PipelineTest, WidthsFromParamsUsesFallbackWhenStarved) {
  const std::vector<double> fallback{1e-6, 2e-6, 3e-6};
  const auto widths = widths_from_params(*topo_, *tech_, *luts_, {}, fallback);
  EXPECT_EQ(widths, fallback);
}

TEST_F(PipelineTest, CopilotWithNearestNeighborMeetsTargets) {
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  SizingCopilot copilot(*topo_, *tech_, *builder_, nn, *luts_);
  const auto targets = targets_from_designs(dataset_->designs, 10, 0.08, 3);
  int successes = 0;
  int total_sims = 0;
  for (const auto& t : targets) {
    const SizingOutcome o = copilot.size(t);
    successes += o.success ? 1 : 0;
    total_sims += o.spice_simulations;
    EXPECT_LE(o.spice_simulations, 6);
  }
  EXPECT_GE(successes, 8);  // dense dataset: NN + LUT should almost always hit
  EXPECT_LE(total_sims, 10 * 6);
}

TEST_F(PipelineTest, CopilotReportsHonestOutcome) {
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  SizingCopilot copilot(*topo_, *tech_, *builder_, nn, *luts_);
  // Infeasible request: single-stage 5T cannot give 60 dB.
  const SizingOutcome o = copilot.size(Specs{60.0, 50e6, 5e9});
  EXPECT_FALSE(o.success);
  EXPECT_EQ(o.iterations, CopilotOptions{}.max_iterations);
  EXPECT_GT(o.spice_simulations, 0);
}

TEST_F(PipelineTest, CorrelationTableWithOracleIsNearPerfect) {
  // Predicting a design's own parameters via NN lookup on a dataset that
  // contains that design yields r ~ 1 by construction: validates the metric
  // plumbing end to end.
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  const auto rows = correlation_table(*topo_, *builder_, nn,
                                      dataset_->designs, 25);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_GT(row.r_gm, 0.99) << row.devices;
    EXPECT_GT(row.r_gds, 0.99) << row.devices;
    EXPECT_GT(row.r_cds, 0.99) << row.devices;
    EXPECT_GT(row.r_cgs, 0.99) << row.devices;
    EXPECT_GE(row.samples, 25);
  }
}

TEST_F(PipelineTest, ScatterSeriesAlignsPairs) {
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  const auto s = scatter_series(*builder_, nn, dataset_->designs, "M3", "gm", 15);
  EXPECT_EQ(s.measured.size(), s.predicted.size());
  EXPECT_GE(s.measured.size(), 10u);
}

TEST_F(PipelineTest, SizingModelTrainsAndPersists) {
  // Tiny run: mechanics only (loss finite and decreasing-ish, save/load).
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < 30; ++i) {
    const Design& d = dataset_->designs[i];
    pairs.emplace_back(builder_->encoder_text(d.specs), builder_->decoder_text(d));
  }
  SizingModel model;
  TrainOptions opt;
  opt.epochs = 2;
  opt.d_model = 16;
  opt.n_heads = 2;
  opt.d_ff = 32;
  opt.bpe_merges = 64;
  const TrainHistory hist = model.train(pairs, opt);
  ASSERT_EQ(hist.train_loss.size(), 2u);
  EXPECT_LT(hist.train_loss[1], hist.train_loss[0]);
  EXPECT_TRUE(model.trained());

  const std::string out = model.predict(pairs[0].first, 200);
  EXPECT_FALSE(out.empty());

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_test_model").string();
  model.save(prefix);
  SizingModel loaded;
  ASSERT_TRUE(loaded.load(prefix));
  EXPECT_EQ(loaded.predict(pairs[0].first, 200), out);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST_F(PipelineTest, SizingModelLoadMissingReturnsFalse) {
  SizingModel m;
  EXPECT_FALSE(m.load("/nonexistent/prefix"));
}

// Wraps the NN predictor but (a) records every encoder request the copilot
// issues and (b) answers the first call with a fixed (deliberately poor)
// design, forcing the miss-then-tighten refinement path.
class FirstReplyPredictor : public Predictor {
 public:
  FirstReplyPredictor(const NearestNeighborPredictor& nn,
                      std::string first_reply)
      : nn_(nn), first_reply_(std::move(first_reply)) {}

  std::string predict(const std::string& encoder_text, int max_tokens,
                      const CancelToken& = {}) const override {
    requests_.push_back(encoder_text);
    if (requests_.size() == 1) return first_reply_;
    return nn_.predict(encoder_text, max_tokens);
  }

  const std::vector<std::string>& requests() const { return requests_; }

 private:
  const NearestNeighborPredictor& nn_;
  std::string first_reply_;
  mutable std::vector<std::string> requests_;
};

// Always answers with the same design, regardless of the request.
class ConstantPredictor : public Predictor {
 public:
  explicit ConstantPredictor(std::string reply) : reply_(std::move(reply)) {}
  std::string predict(const std::string&, int,
                      const CancelToken& = {}) const override {
    return reply_;
  }

 private:
  std::string reply_;
};

TEST_F(PipelineTest, CopilotMissTightensRequestThenRecovers) {
  // Target the strongest design's specs (slightly relaxed) but make the
  // first prediction return the weakest design: iteration 1 must miss, the
  // re-request must be tightened beyond the raw target (margin boost), and
  // the NN answer to the tightened request must then close the loop.
  const auto by_ugf = [](const Design& a, const Design& b) {
    return a.specs.ugf_hz < b.specs.ugf_hz;
  };
  const Design& weakest = *std::min_element(dataset_->designs.begin(),
                                            dataset_->designs.end(), by_ugf);
  const Design& strongest = *std::max_element(dataset_->designs.begin(),
                                              dataset_->designs.end(), by_ugf);
  ASSERT_LT(weakest.specs.ugf_hz, 0.7 * strongest.specs.ugf_hz)
      << "dataset spread too small for a guaranteed first-iteration miss";

  Specs target = strongest.specs;
  target.gain_db -= 0.3;
  target.bw_hz *= 0.95;
  target.ugf_hz *= 0.95;

  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  const FirstReplyPredictor pred(nn, builder_->decoder_text(weakest));
  SizingCopilot copilot(*topo_, *tech_, *builder_, pred, *luts_);
  const SizingOutcome o = copilot.size(target);

  EXPECT_TRUE(o.success);
  EXPECT_GE(o.iterations, 2);
  ASSERT_GE(pred.requests().size(), 2u);

  // Request 1 is the raw target; request 2 must be tightened (margin
  // allocation): no spec loosened, the missed UGF strictly raised.
  const Specs r1 = parse_encoder_specs(pred.requests()[0]);
  const Specs r2 = parse_encoder_specs(pred.requests()[1]);
  EXPECT_NEAR(r1.ugf_hz, target.ugf_hz, target.ugf_hz * 0.01);
  EXPECT_GE(r2.gain_db, r1.gain_db - 0.05);
  EXPECT_GE(r2.bw_hz, r1.bw_hz * 0.99);
  EXPECT_GT(r2.ugf_hz, r1.ugf_hz * 1.02);
}

TEST_F(PipelineTest, CopilotFallsBackToConstantDensityScaling) {
  // A predictor stuck on one design exhausts prediction_iterations; the
  // remaining rounds must refine by constant-density width scaling: all
  // widths multiplied by one common factor, which lifts UGF/BW to a target
  // the predictions alone can never reach.
  // Pick the design with the most scaling headroom so the common factor
  // never hits the 50 um clamp (which would break factor uniformity).
  const Design& base = *std::min_element(
      dataset_->designs.begin(), dataset_->designs.end(),
      [](const Design& a, const Design& b) {
        return *std::max_element(a.widths.begin(), a.widths.end()) <
               *std::max_element(b.widths.begin(), b.widths.end());
      });
  Specs target = base.specs;
  target.bw_hz *= 1.25;
  target.ugf_hz *= 1.25;
  target.gain_db -= 0.3;  // density scaling holds the gain constant

  const ConstantPredictor pred(builder_->decoder_text(base));
  SizingCopilot copilot(*topo_, *tech_, *builder_, pred, *luts_);
  CopilotOptions opt;
  opt.prediction_iterations = 1;
  const SizingOutcome o = copilot.size(target, opt);

  EXPECT_TRUE(o.success);
  EXPECT_GE(o.iterations, 2);

  // The final widths must be a uniform scale-up of the iteration-1 widths
  // (the best — and only — verified prediction candidate).
  std::map<std::string, double> params;
  for (const auto& slot : builder_->slots()) {
    params[slot.name] =
        builder_->parse_decoder(builder_->decoder_text(base)).at(slot.name);
  }
  const auto w1 = widths_from_params(*topo_, *tech_, *luts_, params,
                                     std::vector<double>(3, 5e-6));
  ASSERT_EQ(o.widths.size(), w1.size());
  const double factor = o.widths[0] / w1[0];
  EXPECT_GT(factor, 1.05);
  for (size_t g = 1; g < w1.size(); ++g) {
    EXPECT_NEAR(o.widths[g] / w1[g], factor, factor * 1e-9) << "group " << g;
  }
}

TEST_F(PipelineTest, CopilotStopsBeforeAnyWorkOnAFiredToken) {
  // The serial copilot honours its token at the first stage boundary: an
  // already-cancelled token and an already-passed deadline both throw
  // Cancelled before any prediction or verification simulation.
  const NearestNeighborPredictor nn(*builder_, dataset_->designs);
  const FirstReplyPredictor pred(nn, builder_->decoder_text(dataset_->designs[0]));
  SizingCopilot copilot(*topo_, *tech_, *builder_, pred, *luts_);
  const Specs target = targets_from_designs(dataset_->designs, 1, 0.08, 3)[0];

  CopilotOptions cancelled;
  cancelled.cancel = CancelToken(CancelToken::Clock::time_point::max());
  cancelled.cancel.cancel();
  CopilotOptions expired;
  expired.cancel =
      CancelToken(CancelToken::Clock::now() - std::chrono::seconds(1));

  stats::ScopedStats scoped;
  EXPECT_THROW((void)copilot.size(target, cancelled), Cancelled);
  EXPECT_THROW((void)copilot.size(target, expired), Cancelled);
  EXPECT_TRUE(pred.requests().empty());
  const auto sites = stats::snapshot();
  for (const char* site : {"core.copilot.stage3_widths", "core.copilot.stage4_verify"}) {
    const auto it = sites.find(site);
    EXPECT_TRUE(it == sites.end() || it->second.count == 0) << site;
  }

  // The same copilot still sizes normally under a live token.
  CopilotOptions live;
  live.cancel = CancelToken(CancelToken::Clock::time_point::max());
  EXPECT_GT(copilot.size(target, live).spice_simulations, 0);
  EXPECT_FALSE(pred.requests().empty());
  // Every Stage II prediction is followed by one timed Stage III.
  const auto live_sites = stats::snapshot();
  const auto stage2 = live_sites.find("core.copilot.stage2_predict");
  const auto stage3 = live_sites.find("core.copilot.stage3_widths");
  ASSERT_NE(stage2, live_sites.end());
  ASSERT_NE(stage3, live_sites.end());
  EXPECT_GT(stage3->second.count, 0u);
  EXPECT_EQ(stage3->second.count, stage2->second.count);
}

TEST_F(PipelineTest, TargetsFromDesignsAreFeasibleRelaxations) {
  const auto targets = targets_from_designs(dataset_->designs, 15, 0.05, 9);
  ASSERT_EQ(targets.size(), 15u);
  for (const auto& t : targets) {
    bool dominated = false;
    for (const auto& d : dataset_->designs) {
      if (d.specs.gain_db >= t.gain_db && d.specs.bw_hz >= t.bw_hz &&
          d.specs.ugf_hz >= t.ugf_hz) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "target must be achievable by some known design";
  }
}

}  // namespace
}  // namespace ota::core
