// The three workloads and what they share: run options, repeated set-up
// timing, the ota::stats window of a traced pass, and the end of a trace.
//
// Every workload reports the same end-to-end metric names, each meaning the
// workload's own user-visible figure (README.md has the table):
//
//   setup_s               median of repeated set-ups
//   peak_rss_mb           peak resident set size of the run
//   throughput_per_s      burst capacity, campaigns/s | f32-tier tokens/s |
//                         datagen designs/s
//   throughput_alt_per_s  open-loop campaigns per second of run time |
//                         double-tier tokens/s | training examples/s
//
// Latencies are per-layer metrics: on a shared host the open-loop campaign
// latency swung by 30-50% between runs as the host's speed drifted, too much
// for an end-to-end bound.
//
// A traced run (--trace 1) instead reports the per-layer metrics: counters
// and self times from spans the benchmark records around each call into a
// layer's public API, plus the counters ota::stats already keeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for traced runs ("" = none)
};

/// Runs `fn` `repeats` times and reports setup_s as the median duration.
/// The workload keeps what the last call built.
///
/// With `across_cpus`, the k-th repeat runs pinned to the k-th CPU this
/// process may use, round robin, so every run samples every CPU alike.  A
/// single-threaded set-up otherwise reads whichever CPU the process landed
/// on, and on a shared host their speeds differ.  Only for set-ups that
/// start no threads: a thread inherits its creator's pin.
void timed_setups(Report& report, int repeats, const std::function<void()>& fn,
                  bool across_cpus = false);

/// Logs the samples behind a median, then their median and interquartile
/// range over median — the same spread statistic the benchmark's results are
/// judged by, here within one run ("label: a b c ...  | median m, IQR/median
/// r").
void print_series(const char* label, const std::vector<double>& values);

/// Mixes a run seed with a purpose tag into an independent 64-bit seed.
uint64_t derive_seed(uint64_t seed, uint64_t tag);

/// ota::stats over one traced pass: reset + enable on begin(), and a
/// snapshot taken by end() (after which collection is off again).
class LayerCounters {
 public:
  void begin();
  void end();
  double seconds(const std::string& site) const;
  double count(const std::string& site) const;
  /// Publishes the counters every workload reports: GEMM, DC/LU, pool,
  /// scheduler round time.
  void publish_common(Report& report) const;

 private:
  std::map<std::string, ota::stats::SiteTotals> snap_;
};

/// Per-layer self times, unattributed wall time and the Chrome trace file.
void finish_trace(const Tracer& tracer, int64_t wall_start_ns,
                  int64_t wall_end_ns, const RunOptions& opt, Report& report);

/// The workload's cost figure (higher = slower) from an untraced and a traced
/// pass, reported as trace.overhead_pct.
void report_overhead(double untraced_cost, double traced_cost, Report& report);

void run_campaign_open(const RunOptions& opt, Report& report);
void run_decode_paper(const RunOptions& opt, Report& report);
void run_offline_train(const RunOptions& opt, Report& report);

}  // namespace perfbench
