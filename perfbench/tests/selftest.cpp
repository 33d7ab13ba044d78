// Self-tests for the benchmark's own statistics and trace helpers.
//
//   perfbench_selftest        exit 0 when every check passes
//
// perfbench/run.py runs this before every benchmark run, so a broken helper
// can never publish a number.  Expected values for the quartiles come from
// Python's statistics.quantiles(v, n=4), the computation the spread of the
// benchmark's results is judged by.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_percentiles() {
  using perfbench::median;
  using perfbench::percentile;
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({4.0, 1.0}), 2.5, "median of two interpolates");
  expect_near(median({5.0, 1.0, 3.0}), 3.0, "median of three");
  expect_near(median({1.0, 2.0, 3.0, 10.0}), 2.5, "median of four");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 90.0), 90.1, "p90 of 1..100");
  expect_near(percentile(hundred, 0.0), 1.0, "p0 is the minimum");
  expect_near(percentile(hundred, 100.0), 100.0, "p100 is the maximum");
  bool threw = false;
  try {
    (void)percentile({}, 50.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of an empty sample throws");
}

void test_quartiles() {
  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const auto q = perfbench::quartiles(ten);
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = perfbench::quartiles({2.0, 1.0});
  expect_near(two.q1, 0.75, "q1 of two extrapolates like Python");
  expect_near(two.q2, 1.5, "q2 of two");
  expect_near(two.q3, 2.25, "q3 of two extrapolates like Python");
  // Python: statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const auto five = perfbench::quartiles({16.0, 1.0, 8.0, 2.0, 4.0});
  expect_near(five.q1, 1.5, "q1 of five");
  expect_near(five.q2, 4.0, "q2 of five");
  expect_near(five.q3, 12.0, "q3 of five");
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  expect(tail_percentile(100) == 90.0, "100 samples: p90 has exactly 10 beyond");
  expect(tail_percentile(199) == 90.0, "199 samples: p95 has only 9 beyond");
  expect(tail_percentile(200) == 95.0, "200 samples: p95 has 10 beyond");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  expect(tail_percentile(40) == 75.0, "40 samples: p75");
  expect(tail_percentile(20) == 50.0, "20 samples: only the median");
  expect(!tail_percentile(19).has_value(), "19 samples: no percentile qualifies");
}

void test_open_loop() {
  using perfbench::OpenLoopSample;
  // Due every second; the generator stalls 1.5 s on the second send, and
  // the third goes out 0.6 s late behind it.
  const std::vector<OpenLoopSample> s = {
      {0.0, 0.0, 0.1}, {1.0, 2.5, 0.1}, {2.0, 2.6, 0.1}};
  const auto sum = perfbench::summarize_open_loop(s);
  expect_near(sum.latencies[0], 0.1, "on-time request: latency is its service time");
  expect_near(sum.latencies[1], 1.6, "late request is charged from its due time");
  expect_near(sum.latencies[2], 0.7, "request behind a stall pays for the stall");
  expect_near(sum.max_lateness, 1.5, "generator lag is the worst lateness");
  expect_near(sum.window, 2.7, "window runs from the first due time to the last completion");
  expect_near(OpenLoopSample{1.0, 1.0, 0.5}.lateness(), 0.0, "on time is zero lateness");
  expect(perfbench::summarize_open_loop({}).latencies.empty(), "empty schedule");
}

void test_attribution() {
  using perfbench::Span;
  // root [0, 100) bench; child A [10, 50) core with grandchild [20, 30) ml;
  // child B [40, 80) spice overlapping A.  Nothing covers [80, 100).
  const std::vector<Span> spans = {
      {"root", "bench", 0, -1, -1, 0, 100'000'000, 0},
      {"a", "core", 1, 0, -1, 10'000'000, 50'000'000, 0},
      {"a.inner", "ml", 2, 1, -1, 20'000'000, 30'000'000, 0},
      {"b", "spice", 3, 0, -1, 40'000'000, 80'000'000, 1},
  };
  const auto a = perfbench::attribute(spans, 0, 100'000'000);
  expect_near(a.self_seconds.at("bench"), 0.030, "root self time excludes the union of its children");
  expect_near(a.self_seconds.at("core"), 0.030, "child self time excludes its own child");
  expect_near(a.self_seconds.at("ml"), 0.010, "leaf self time is its duration");
  expect_near(a.self_seconds.at("spice"), 0.040, "overlapping sibling keeps its own time");
  expect_near(a.attributed_seconds, 0.070, "layer spans cover [10, 80)");
  expect_near(a.unattributed_pct(), 30.0, "bench-only time is unattributed");
  expect_near(a.idle_seconds, 0.0, "no idle spans, no idle time");

  // An open-loop wait [60, 100) that overlaps layer span b on [60, 80):
  // only [80, 100) is idle, and it leaves the busy wall time.
  std::vector<Span> with_idle = spans;
  with_idle.push_back({"wait", "idle", 4, 0, -1, 60'000'000, 100'000'000, 1});
  const auto b = perfbench::attribute(with_idle, 0, 100'000'000);
  expect_near(b.idle_seconds, 0.020, "idle time is what no layer span overlaps");
  expect_near(b.idle_pct(), 20.0, "idle share of the wall time");
  expect_near(b.unattributed_pct(), 100.0 * 0.010 / 0.080,
              "unattributed share is of the busy wall time");

  perfbench::Tracer off(false);
  expect(off.begin("x", "ml") == -1 && off.spans().empty(), "a disabled tracer records nothing");
  perfbench::Tracer on(true);
  {
    perfbench::Tracer::Scope outer(on, "outer", "bench");
    perfbench::Tracer::Scope inner(on, "inner", "ml", 7);
  }
  const auto recorded = on.spans();
  expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
             recorded[1].request == 7 && recorded[0].parent == -1,
         "scopes nest through the thread's open-span stack");
}

}  // namespace

int main() {
  test_percentiles();
  test_quartiles();
  test_tail_percentile();
  test_open_loop();
  test_attribution();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
