// Order statistics and open-loop accounting for the benchmark's reports.
//
// Every timing the benchmark reports is a median plus a tail percentile, and
// the tail is only meaningful when enough samples lie beyond it: with n
// samples, the p-th percentile has about n * (1 - p/100) samples above it.
// tail_percentile() picks the highest standard percentile that keeps at
// least ten samples beyond it, so a "p90" is never quoted from twelve
// samples.  perfbench_selftest pins all of these helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Percentile by linear interpolation between closest ranks (p in [0, 100]):
/// rank p/100 * (n - 1) into the sorted sample.  Throws on an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of an empty sample");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The three cut points dividing the sample into quarters, by exactly the
/// arithmetic of Python's statistics.quantiles(v, n=4) (its default
/// "exclusive" method, which extrapolates past the ends of tiny samples), so
/// spreads computed here and by a Python harness agree.  Needs two samples.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const auto lo = static_cast<size_t>(j - 1), hi = static_cast<size_t>(j);
    return (v[lo] * static_cast<double>(4 - delta) +
            v[hi] * static_cast<double>(delta)) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

/// The highest of the standard reporting percentiles (99.9, 99, 95, 90, 75,
/// 50) that has at least ten of `n` samples beyond it, i.e.
/// floor(n * (1 - p/100)) >= 10; nullopt when even the median does not
/// (n < 20).
inline std::optional<double> tail_percentile(size_t n) {
  constexpr size_t kMinBeyond = 10;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Integer arithmetic in tenths of a percent: n * (1000 - 10p) / 1000.
    const auto tenths = static_cast<size_t>(std::lround(1000.0 - 10.0 * p));
    if (n * tenths / 1000 >= kMinBeyond) return p;
  }
  return std::nullopt;
}

/// Open-loop accounting for one request: it was due at `scheduled`, the
/// generator actually sent it at `sent` (>= scheduled when the generator ran
/// late), and it resolved `service` seconds after it was sent.  Timing from
/// the due time is what makes a stall visible: a request queued behind a
/// stall pays for it even when the generator itself fell behind.
struct OpenLoopSample {
  double scheduled = 0.0;  ///< due time, seconds since the run's start
  double sent = 0.0;       ///< actual send time, same clock
  double service = 0.0;    ///< send -> resolution, seconds

  double lateness() const { return std::max(0.0, sent - scheduled); }
  double latency() const { return (sent - scheduled) + service; }
  double completed() const { return sent + service; }
};

struct OpenLoopSummary {
  std::vector<double> latencies;  ///< per request, from its due time
  double max_lateness = 0.0;      ///< how far the generator fell behind
  double window = 0.0;            ///< first due time -> last completion
};

inline OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopSample>& s) {
  OpenLoopSummary out;
  if (s.empty()) return out;
  double first_due = s.front().scheduled, last_done = s.front().completed();
  for (const auto& x : s) {
    out.latencies.push_back(x.latency());
    out.max_lateness = std::max(out.max_lateness, x.lateness());
    first_due = std::min(first_due, x.scheduled);
    last_done = std::max(last_done, x.completed());
  }
  out.window = last_done - first_due;
  return out;
}

}  // namespace perfbench
