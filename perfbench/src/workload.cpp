#include "workload.hpp"

#include <sched.h>

#include <cstdio>

namespace perfbench {

namespace {

/// Layers whose self time a traced run reports; "bench" is the workload's
/// own phase markers and glue.
constexpr const char* kLayers[] = {"bench", "serve", "core", "ml", "nlp", "spice", "lut"};

}  // namespace

void timed_setups(Report& report, int repeats, const std::function<void()>& fn,
                  bool across_cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (across_cpus && sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
  report.metric("setup_s", median(times), "s");
  print_series("setup seconds per repeat", times);
}

void print_series(const char* label, const std::vector<double>& values) {
  std::printf("%s:", label);
  for (double v : values) std::printf(" %.4g", v);
  if (values.size() >= 2) {
    const Quartiles q = quartiles(values);
    std::printf("  | median %.4g, IQR/median %.3f", q.q2,
                q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0);
  }
  std::printf("\n");
}

uint64_t derive_seed(uint64_t seed, uint64_t tag) {
  // SplitMix64 finalizer over the pair: nearby seeds map far apart.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void LayerCounters::begin() {
  ota::stats::reset();
  ota::stats::enable();
}

void LayerCounters::end() {
  snap_ = ota::stats::snapshot();
  ota::stats::disable();
}

double LayerCounters::seconds(const std::string& site) const {
  const auto it = snap_.find(site);
  return it == snap_.end() ? 0.0 : it->second.seconds;
}

double LayerCounters::count(const std::string& site) const {
  const auto it = snap_.find(site);
  return it == snap_.end() ? 0.0 : static_cast<double>(it->second.count);
}

void LayerCounters::publish_common(Report& report) const {
  for (const char* mode : {"nn", "nt", "tn"}) {
    const std::string site = std::string("ml.gemm.") + mode;
    report.metric(site + ".calls", count(site), "count");
    report.metric(site + ".s", seconds(site), "s");
  }
  report.metric("spice.dc.solves", count("spice.dc.solve"), "count");
  report.metric("spice.dc.newton_iterations", count("spice.dc.newton_iterations"), "count");
  report.metric("spice.dc.gmin_retries", count("spice.dc.gmin_retries"), "count");
  report.metric("linalg.lu.factor.calls", count("linalg.lu.factor"), "count");
  report.metric("linalg.lu.factor.s", seconds("linalg.lu.factor"), "s");
  report.metric("par.pool.items", count("par.pool.items"), "count");
  report.metric("par.pool.dispatch_s", seconds("par.pool.dispatch"), "s");
  const double rounds = count("ml.scheduler.round");
  report.metric("ml.scheduler.round_s.mean",
                rounds > 0 ? seconds("ml.scheduler.round") / rounds : 0.0, "s");
}

void finish_trace(const Tracer& tracer, int64_t wall_start_ns, int64_t wall_end_ns,
                  const RunOptions& opt, Report& report) {
  const std::vector<Span> spans = tracer.spans();
  const Attribution a = attribute(spans, wall_start_ns, wall_end_ns);
  for (const char* layer : kLayers) {
    const auto it = a.self_seconds.find(layer);
    report.metric(std::string("trace.self_s.") + layer,
                  it == a.self_seconds.end() ? 0.0 : it->second, "s");
  }
  report.metric("trace.wall_s", a.wall_seconds, "s");
  report.metric("trace.idle_pct", a.idle_pct(), "%");
  report.metric("trace.unattributed_pct", a.unattributed_pct(), "%");
  report.metric("trace.spans", static_cast<double>(spans.size()), "count");
  report.check(a.unattributed_pct() <= 10.0,
               "named layer spans cover at least 90% of the traced busy wall time");
  if (!opt.trace_out.empty()) {
    const Host h = host_fingerprint();
    const bool ok = write_chrome_trace(
        opt.trace_out, spans,
        {{"workload", opt.workload},
         {"seed", std::to_string(opt.seed)},
         {"seconds", std::to_string(opt.seconds)},
         {"nproc", std::to_string(h.nproc)},
         {"cpu_model", h.cpu_model},
         {"build_type", h.build_type},
         {"compiler", h.compiler}});
    report.check(ok, "trace file " + opt.trace_out + " written");
    if (ok) std::printf("trace: %zu spans -> %s\n", spans.size(), opt.trace_out.c_str());
  }
}

void report_overhead(double untraced_cost, double traced_cost, Report& report) {
  report.metric("trace.overhead_pct",
                untraced_cost > 0.0 ? 100.0 * (traced_cost / untraced_cost - 1.0) : 0.0,
                "%");
}

}  // namespace perfbench
