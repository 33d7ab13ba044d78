// perfbench: the repository benchmark.
//
//   perfbench --workload campaign_open|decode_paper|offline_train
//             --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Generates the workload's inputs from --seed, measures for about --seconds,
// checks the outputs, and prints a summary followed by one JSON line with
// every metric it measured.  perfbench/run.py builds this binary and selects
// the metrics BENCHMARK.json publishes.  Exit code 1 when a correctness
// check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload campaign_open|"
               "decode_paper|offline_train --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (opt.workload == "campaign_open") {
      perfbench::run_campaign_open(opt, report);
    } else if (opt.workload == "decode_paper") {
      perfbench::run_decode_paper(opt, report);
    } else if (opt.workload == "offline_train") {
      perfbench::run_offline_train(opt, report);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.print(opt.workload);
  return report.correct() ? 0 : 1;
}
