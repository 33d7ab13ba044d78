#include "core/metrics.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "linalg/stats.hpp"

namespace ota::core {

namespace {

double measured_param(const device::SmallSignal& ss, const std::string& param) {
  if (param == "gm") return ss.gm;
  if (param == "gds") return ss.gds;
  if (param == "Cds") return ss.cds;
  if (param == "Cgs") return ss.cgs;
  if (param == "Id") return ss.id;
  throw InvalidArgument("metrics: unknown parameter '" + param + "'");
}

std::string param_key(const std::string& param, const std::string& device) {
  return param + device;
}

// The shared predict-then-parse step of every validation sweep: one predict
// per design for the first n designs, each parsed into its design's slot.
std::vector<std::map<std::string, double>> predict_params(
    const SequenceBuilder& builder, const Predictor& model,
    const std::vector<Design>& validation, int n, int max_tokens = 800) {
  std::vector<std::map<std::string, double>> out(static_cast<size_t>(n));
  par::global_pool().parallel_for(out.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = builder.parse_decoder(model.predict(
          builder.encoder_text(validation[i].specs), max_tokens));
    }
  });
  return out;
}

}  // namespace

std::vector<CorrelationRow> correlation_table(
    const circuit::Topology& topo, const SequenceBuilder& builder,
    const Predictor& model, const std::vector<Design>& validation,
    int max_designs) {
  const int n = std::min<int>(max_designs, static_cast<int>(validation.size()));
  if (n < 3) throw InvalidArgument("correlation_table: too few designs");

  // Collect predictions once per design, concurrently across designs.
  const std::vector<std::map<std::string, double>> predictions =
      predict_params(builder, model, validation, n);

  std::vector<CorrelationRow> rows;
  for (const auto& group : topo.match_groups) {
    const std::string& rep = group.devices.front();
    CorrelationRow row;
    row.devices = group.devices.size() > 1
                      ? group.devices[0] + "/" + group.devices[1]
                      : group.devices[0];
    auto role = topo.device_roles.find(rep);
    row.role = role != topo.device_roles.end() ? role->second : "";

    for (const std::string param : {"gm", "gds", "Cds", "Cgs"}) {
      std::vector<double> pred, meas;
      for (int i = 0; i < n; ++i) {
        const auto& p = predictions[static_cast<size_t>(i)];
        auto it = p.find(param_key(param, rep));
        if (it == p.end()) continue;
        pred.push_back(it->second);
        meas.push_back(measured_param(
            validation[static_cast<size_t>(i)].devices.at(rep), param));
      }
      double r = 0.0;
      if (pred.size() >= 3) r = linalg::pearson(meas, pred);
      if (param == "gm") row.r_gm = r;
      else if (param == "gds") row.r_gds = r;
      else if (param == "Cds") row.r_cds = r;
      else row.r_cgs = r;
      row.samples = std::max(row.samples, static_cast<int>(pred.size()));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

ScatterSeries scatter_series(const SequenceBuilder& builder,
                             const Predictor& model,
                             const std::vector<Design>& validation,
                             const std::string& device,
                             const std::string& param, int max_designs) {
  ScatterSeries s;
  s.device = device;
  s.param = param;
  if (max_designs < 0) {
    throw InvalidArgument("scatter_series: max_designs must be >= 0, got " +
                          std::to_string(max_designs));
  }
  const int n = std::min<int>(max_designs, static_cast<int>(validation.size()));
  const auto predictions = predict_params(builder, model, validation, n);
  for (int i = 0; i < n; ++i) {
    const Design& d = validation[static_cast<size_t>(i)];
    const auto& pred = predictions[static_cast<size_t>(i)];
    auto it = pred.find(param_key(param, device));
    if (it == pred.end()) continue;
    s.predicted.push_back(it->second);
    s.measured.push_back(measured_param(d.devices.at(device), param));
  }
  return s;
}

RuntimeStats runtime_stats(const SizingCopilot& copilot,
                           const std::vector<Specs>& targets,
                           const CopilotOptions& opt,
                           par::ThreadPool& pool) {
  // Each target gets a pristine copy of the copilot so its outcome depends
  // only on (copilot state at call time, target) — not on which targets ran
  // before it on the same thread.  That per-target isolation is what makes
  // the aggregate independent of the pool width.
  std::vector<SizingOutcome> outcomes(targets.size());
  pool.parallel_for(targets.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      SizingCopilot worker = copilot;
      outcomes[i] = worker.size(targets[i], opt);
    }
  });

  RuntimeStats st;
  double single_time = 0.0, multi_time = 0.0, multi_iters = 0.0;
  long sims = 0;
  for (const SizingOutcome& o : outcomes) {
    ++st.total;
    sims += o.spice_simulations;
    if (o.success && o.iterations == 1) {
      ++st.single_iteration;
      single_time += o.seconds;
    } else if (o.success) {
      ++st.multi_iteration;
      multi_time += o.seconds;
      multi_iters += o.iterations;
    } else {
      ++st.failures;
    }
  }
  if (st.single_iteration > 0) st.avg_single_seconds = single_time / st.single_iteration;
  if (st.multi_iteration > 0) {
    st.avg_multi_seconds = multi_time / st.multi_iteration;
    st.avg_multi_iterations = multi_iters / st.multi_iteration;
  }
  if (st.total > 0) {
    st.avg_sims_per_design = static_cast<double>(sims) / st.total;
  }
  return st;
}

std::vector<Specs> targets_from_designs(const std::vector<Design>& designs,
                                        int count, double relax, uint64_t seed) {
  if (designs.empty()) throw InvalidArgument("targets_from_designs: no designs");
  if (count < 0) {
    throw InvalidArgument("targets_from_designs: count must be >= 0, got " +
                          std::to_string(count));
  }
  Rng rng(seed);
  std::vector<Specs> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Design& d =
        designs[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(designs.size()) - 1))];
    Specs t = d.specs;
    // Relax each requirement a little below the known-achievable point so the
    // target is unseen yet feasible.
    t.gain_db -= rng.uniform(0.0, relax * 10.0);   // up to ~0.5 dB easier
    t.bw_hz *= 1.0 - rng.uniform(0.0, relax);
    t.ugf_hz *= 1.0 - rng.uniform(0.0, relax);
    out.push_back(t);
  }
  return out;
}

}  // namespace ota::core
