#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

Host host_fingerprint() {
  Host h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

void Report::ops(const std::string& phase, uint64_t attempted, uint64_t succeeded,
                 uint64_t failed) {
  Ops& o = ops_[phase];
  o.attempted += attempted;
  o.succeeded += succeeded;
  o.failed += failed;
  metric("ops." + phase + ".attempted", static_cast<double>(o.attempted), "count");
  metric("ops." + phase + ".succeeded", static_cast<double>(o.succeeded), "count");
  metric("ops." + phase + ".failed", static_cast<double>(o.failed), "count");
}

void Report::check(bool ok, const std::string& what) {
  ++checks_run_;
  if (!ok) {
    ++checks_failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::print(const std::string& workload) const {
  const Host h = host_fingerprint();
  std::printf("host: nproc=%d cpu=\"%s\" build=%s compiler=\"%s\"\n", h.nproc,
              h.cpu_model.c_str(), h.build_type.c_str(), h.compiler.c_str());
  std::printf("workload %s\n", workload.c_str());
  for (const auto& [phase, o] : ops_) {
    std::printf("  ops %-18s attempted %llu  succeeded %llu  failed %llu\n",
                phase.c_str(), static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.succeeded),
                static_cast<unsigned long long>(o.failed));
  }
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (name.rfind("ops.", 0) == 0) continue;
    std::printf("  %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  checks: %llu run, %llu failed\n",
              static_cast<unsigned long long>(checks_run_),
              static_cast<unsigned long long>(checks_failed_));

  uint64_t attempted = 0, failed = checks_failed_;
  for (const auto& [phase, o] : ops_) {
    attempted += o.attempted;
    failed += o.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
