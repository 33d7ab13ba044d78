// Shared infrastructure for the experiment benchmarks.
//
// Every bench binary regenerates its datasets deterministically (seconds) and
// shares one trained transformer per topology through an on-disk cache
// (OTA_CACHE_DIR, default ./ota_bench_cache), so running the whole bench
// directory trains each model exactly once.
//
// Scale control: OTA_SCALE=tiny|small|paper (default small).
//   tiny  — smoke-test scale, minutes for everything, weak accuracy
//   small — CPU-scale defaults used for the committed EXPERIMENTS.md numbers
//   paper — the paper's dataset/model scale (GPU-sized; hours on CPU)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/copilot.hpp"
#include "core/metrics.hpp"
#include "core/nearest_predictor.hpp"
#include "core/sizing_model.hpp"

namespace ota::benchsupport {

struct Scale {
  std::string name;
  int designs = 900;        ///< dataset size per topology
  int epochs = 14;
  int64_t d_model = 64;
  int64_t n_heads = 4;
  int64_t n_layers = 2;
  int64_t d_ff = 128;
  double lr = 2e-3;
  int eval_designs = 50;    ///< validation predictions per correlation table
  int sizing_targets = 20;  ///< Table VIII targets per topology

  static Scale from_env() {
    const char* env = std::getenv("OTA_SCALE");
    const std::string s = env ? env : "small";
    Scale sc;
    sc.name = s;
    if (s == "tiny") {
      sc.designs = 250;
      sc.epochs = 6;
      sc.d_model = 32;
      sc.d_ff = 64;
      sc.eval_designs = 20;
      sc.sizing_targets = 8;
    } else if (s == "paper") {
      sc.designs = 17000;
      sc.epochs = 40;
      sc.d_model = 720;
      sc.n_heads = 12;
      sc.n_layers = 6;
      sc.d_ff = 2048;
      sc.lr = 1e-4;
      sc.eval_designs = 100;
      sc.sizing_targets = 100;
    }
    return sc;
  }
};

/// Order-preserving JSON object builder for the BENCH_*.json snapshots.
/// Every bench used to hand-roll its own writer blob; this is the one shared
/// emitter.  Scalars render in insertion order; nested arrays of objects
/// (the per-thread "runs" sweeps) render one object per line.
class JsonObject {
 public:
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonObject& num(const std::string& key, T value) {
    return raw(key, std::to_string(value));
  }
  /// Doubles take an explicit printf format so each bench keeps the
  /// precision its numbers warrant (%.3f seconds, %.0f rates, ...).
  JsonObject& num(const std::string& key, double value,
                  const char* fmt = "%.6g") {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, value);
    return raw(key, buf);
  }
  JsonObject& array(const std::string& key, std::vector<JsonObject> items) {
    fields_.emplace_back(key, Value{"", std::move(items), true});
    return *this;
  }

  std::string render() const {
    std::string out = "{\n";
    for (size_t i = 0; i < fields_.size(); ++i) {
      const auto& [key, value] = fields_[i];
      out += "  \"" + key + "\": ";
      if (value.is_array) {
        out += "[\n";
        for (size_t j = 0; j < value.items.size(); ++j) {
          out += "    " + value.items[j].render_inline();
          if (j + 1 < value.items.size()) out += ",";
          out += "\n";
        }
        out += "  ]";
      } else {
        out += value.scalar;
      }
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    return out + "}\n";
  }

 private:
  struct Value {
    std::string scalar;
    std::vector<JsonObject> items;
    bool is_array = false;
  };

  JsonObject& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, Value{std::move(rendered), {}, false});
    return *this;
  }

  std::string render_inline() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += "\"" + fields_[i].first + "\": " + fields_[i].second.scalar;
      if (i + 1 < fields_.size()) out += ", ";
    }
    return out + "}";
  }

  std::vector<std::pair<std::string, Value>> fields_;
};

/// Writes `obj` to $OTA_BENCH_JSON (or `default_path` when unset) and logs
/// the destination.  Returns false after printing a FAIL line when the file
/// cannot be opened, so benches can propagate it into their exit code.
inline bool write_bench_json(const std::string& default_path,
                             const JsonObject& obj) {
  const char* env = std::getenv("OTA_BENCH_JSON");
  const std::string path = env && *env ? env : default_path;
  std::ofstream js(path);
  if (!js) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", path.c_str());
    return false;
  }
  js << obj.render();
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// Best (minimum) wall time of `repeats` runs of `fn`.  A smoke pass lasts
/// milliseconds to a fraction of a second, where one preemption on a shared
/// host can double a single reading; the minimum is the least disturbed, so
/// the speedup ratios scripts/bench_diff.py gates stay stable run to run.
template <typename Fn>
double best_seconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = r == 0 ? dt : std::min(best, dt);
  }
  return best;
}

inline const device::Technology& tech() {
  static const device::Technology t = device::Technology::default65nm();
  return t;
}

inline const core::LutSet& luts() {
  static const core::LutSet l = core::LutSet::build(tech());
  return l;
}

inline std::string cache_dir() {
  const char* env = std::getenv("OTA_CACHE_DIR");
  std::string dir = env ? env : "ota_bench_cache";
  std::system(("mkdir -p '" + dir + "'").c_str());
  return dir;
}

/// Everything the experiment tables need for one topology.
struct TopologyContext {
  circuit::Topology topology;
  core::Dataset dataset;
  std::vector<core::Design> train;
  std::vector<core::Design> val;
  std::unique_ptr<core::SequenceBuilder> builder;
  core::SizingModel model;
  double training_seconds = 0.0;  ///< fresh run or cached metadata

  TopologyContext(const std::string& name, const Scale& sc)
      : topology(circuit::make_topology(name, tech())) {
    core::DataGenOptions gopt;
    gopt.target_designs = sc.designs;
    gopt.max_attempts = sc.designs * 200;
    gopt.seed = 2024;
    dataset = core::generate_dataset(topology, tech(),
                                     core::SpecRange::for_topology(name), gopt);
    auto split = core::train_val_split(dataset.designs, 0.2, 42);
    train = std::move(split.first);
    val = std::move(split.second);
    builder = std::make_unique<core::SequenceBuilder>(topology, tech());

    const std::string prefix = cache_dir() + "/" + name + "-" + sc.name;
    // A corrupt cache entry (e.g. a run killed mid-save) throws from load();
    // treat it exactly like a cache miss and retrain over it.
    bool cached = false;
    try {
      cached = model.load(prefix);
    } catch (const Error& e) {
      std::fprintf(stderr, "[bench] discarding unreadable cached model %s (%s)\n",
                   prefix.c_str(), e.what());
    }
    if (cached) {
      std::ifstream meta(prefix + ".meta");
      if (meta) meta >> training_seconds;
      std::fprintf(stderr, "[bench] loaded cached model %s (trained in %.0fs)\n",
                   prefix.c_str(), training_seconds);
      return;
    }
    std::fprintf(stderr, "[bench] training %s model at scale '%s' (%zu designs)...\n",
                 name.c_str(), sc.name.c_str(), train.size());
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const auto& d : train) {
      pairs.emplace_back(builder->encoder_text(d.specs), builder->decoder_text(d));
    }
    core::TrainOptions topt;
    topt.epochs = sc.epochs;
    topt.d_model = sc.d_model;
    topt.n_heads = sc.n_heads;
    topt.n_layers = sc.n_layers;
    topt.d_ff = sc.d_ff;
    topt.lr = sc.lr;
    topt.verbose = true;
    const core::TrainHistory hist = model.train(pairs, topt);
    training_seconds = hist.seconds;
    // The cache is best-effort: an unwritable cache directory costs a
    // retrain next run, not this run.
    try {
      model.save(prefix);
    } catch (const Error& e) {
      std::fprintf(stderr, "[bench] not caching model %s (%s)\n",
                   prefix.c_str(), e.what());
      return;
    }
    std::ofstream meta(prefix + ".meta");
    meta << training_seconds << "\n";
  }
};

/// Process-wide context cache.
inline TopologyContext& context(const std::string& name) {
  static std::map<std::string, std::unique_ptr<TopologyContext>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, std::make_unique<TopologyContext>(
                                  name, Scale::from_env())).first;
  }
  return *it->second;
}

/// Prints the per-device correlation rows in the paper's Table II/IV/VI form.
inline void print_correlation_table(const std::string& title,
                                    const std::vector<core::CorrelationRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-8s %-22s %8s %8s %8s %8s %8s\n", "Devices", "Role", "gm",
              "gds", "Cds", "Cgs", "samples");
  for (const auto& r : rows) {
    std::printf("%-8s %-22s %8.3f %8.3f %8.3f %8.3f %8d\n", r.devices.c_str(),
                r.role.c_str(), r.r_gm, r.r_gds, r.r_cds, r.r_cgs, r.samples);
  }
}

/// Prints a target-vs-optimized table in the paper's Table III/V/VII form.
inline void print_sizing_table(const std::string& title,
                               const std::vector<core::SizingOutcome>& rows,
                               double bw_unit = 1e6,
                               const char* bw_label = "MHz") {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-22s %-22s %-24s %s\n", "Gain(dB) tgt->opt",
              (std::string("UGF(MHz) tgt->opt")).c_str(),
              (std::string("BW(") + bw_label + ") tgt->opt").c_str(), "sims");
  for (const auto& o : rows) {
    std::printf("%8.2f -> %-10.2f %8.2f -> %-10.2f %9.3f -> %-11.3f %d%s\n",
                o.target.gain_db, o.achieved.gain_db, o.target.ugf_hz / 1e6,
                o.achieved.ugf_hz / 1e6, o.target.bw_hz / bw_unit,
                o.achieved.bw_hz / bw_unit, o.spice_simulations,
                o.success ? "" : "  (miss)");
  }
}

}  // namespace ota::benchsupport
