// In-memory span tracing for the benchmark's traced runs.
//
// A span is one call into a layer's public API, timed by the benchmark
// itself: name, layer, start, end, the span that caused it, and — for spans
// that belong to one request (a campaign, a decode ticket) — the request id.
// Spans are kept in memory while the workload runs and written out at the
// end as Chrome trace-event JSON, which Perfetto and chrome://tracing open.
//
// A disabled tracer records nothing: Scope construction is one branch, no
// clock read, no allocation, so the untraced runs that produce the
// end-to-end metrics pay nothing for the instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;      ///< "serve", "core", "ml", "nlp", "spice", "lut", "bench"
  int64_t id = 0;
  int64_t parent = -1;    ///< -1: a root span
  int64_t request = -1;   ///< -1: not part of one request
  int64_t start_ns = 0;   ///< since the tracer's origin
  int64_t end_ns = 0;
  int thread = 0;         ///< recording thread, in order of first use
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  int64_t now_ns() const { return to_ns(Clock::now()); }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open.  Returns the span id, or -1 when disabled.
  int64_t begin(std::string name, std::string layer, int64_t request = -1);
  /// Closes a span opened by begin() on this thread.
  void end(int64_t id);

  /// Records a span whose endpoints were measured elsewhere (a campaign's
  /// queue wait, taken from the server's own timestamps).  Returns its id,
  /// or -1 when disabled.
  int64_t add(std::string name, std::string layer, int64_t start_ns,
              int64_t end_ns, int64_t parent = -1, int64_t request = -1);

  /// Every span recorded so far, in id order.
  std::vector<Span> spans() const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer,
          int64_t request = -1)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.begin(name, layer, request) : -1) {}
    ~Scope() {
      if (id_ >= 0) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    int64_t id_;
  };

 private:
  /// Index of the calling thread, assigned on first use; mu_ must be held.
  int thread_index_locked();

  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// Self time and coverage derived from a finished span set.
///
/// Two layer names are special: "bench" marks the workload's own phases and
/// glue, and "idle" marks time the workload deliberately has no work in the
/// system (an open-loop generator waiting for the next due time).  Idle time
/// that no layer span overlaps is taken out of the wall time the layers are
/// held to account for.
struct Attribution {
  /// Per layer: summed self time — each span's duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, double> self_seconds;
  double wall_seconds = 0.0;
  /// Wall time with nothing in flight: covered by "idle" spans only.
  double idle_seconds = 0.0;
  /// Wall time covered by at least one span of a real layer (not "bench",
  /// not "idle").
  double attributed_seconds = 0.0;
  double busy_seconds() const { return wall_seconds - idle_seconds; }
  double idle_pct() const {
    return wall_seconds > 0.0 ? 100.0 * idle_seconds / wall_seconds : 0.0;
  }
  /// Share of the busy wall time no layer span covers.
  double unattributed_pct() const {
    return busy_seconds() > 0.0
               ? 100.0 * (busy_seconds() - attributed_seconds) / busy_seconds()
               : 0.0;
  }
};

Attribution attribute(const std::vector<Span>& spans, int64_t wall_start_ns,
                      int64_t wall_end_ns);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one track
/// per recording thread plus request lanes for concurrent requests).
/// `metadata` lands in the file's "otherData".  Returns false when the file
/// cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::pair<std::string, std::string>>& metadata);

}  // namespace perfbench
