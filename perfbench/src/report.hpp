// What one benchmark run reports: named metrics with units, per-phase
// operation accounting, correctness checks, and the host it ran on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// nproc, CPU model and build type: recorded with every run so an absolute
/// number is never read without the machine that produced it.
struct Host {
  int nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
};
Host host_fingerprint();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Adds one phase's operation counts (phases: campaigns, decode_tickets,
  /// datagen_attempts, training_examples).  Also published as per-layer
  /// metrics ops.<phase>.{attempted,succeeded,failed}.
  void ops(const std::string& phase, uint64_t attempted, uint64_t succeeded,
           uint64_t failed);

  /// A correctness check, run outside the timed window.  A failed check
  /// makes the run incorrect and counts as one failed operation.
  void check(bool ok, const std::string& what);
  bool correct() const { return checks_failed_ == 0; }

  /// Prints the human-readable summary to stdout, then — as the last line —
  /// one JSON object: {"correct", "attempted", "failed", "metrics": {name:
  /// {"value", "unit"}}}.  The harness selects the metrics it publishes.
  void print(const std::string& workload) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Ops {
    uint64_t attempted = 0, succeeded = 0, failed = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::map<std::string, Ops> ops_;
  uint64_t checks_run_ = 0, checks_failed_ = 0;
};

}  // namespace perfbench
