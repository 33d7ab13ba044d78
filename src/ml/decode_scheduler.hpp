// Continuous batching for the KV-cache inference engine.
//
// DecodeScheduler is the engine's one batch decode loop: it alone admits,
// steps and retires a batch, whether the requests come from one caller's
// offline batch or from a server's many concurrent campaigns, each issuing
// its decodes one request at a time.  Callers submit() decode requests from
// any thread and block on a Ticket; a dedicated scheduler thread coalesces
// every outstanding request into one dynamic batch and advances the whole
// batch one token per round on the engine's incremental Sessions.  Batching
// is continuous, at token granularity: requests join the running batch as
// they arrive (up to max_batch) and finished sequences retire immediately —
// no waiting for stragglers, no fixed batch boundaries.  Admission builds
// the joining sessions (the encode pass) on the pool, one pool task per
// session, and requests that arrive while any of them is still building
// join the same admission, so a burst of submissions forms one batch however
// early the scheduler thread wakes on it.  Each round is one parallel_for
// over the live sessions, and each chunk steps its sessions as one group
// (Session::greedy_step_group), so the rows of a chunk share every weight
// sweep.
//
// Determinism contract (property-tested under the DeterminismTest umbrella):
// a request's result is bit-identical to InferenceEngine::greedy_decode of
// the same (src, max_tokens) — regardless of arrival order, batch
// composition, or pool width.  This falls out of the architecture rather
// than of careful scheduling: each request decodes through its own Session
// (private KV cache, greedy_decode's greedy rule once per round).  Rows of a
// group share the GEMM-style weight sweeps but no row reads another's state,
// and each row's numbers are those of its session stepped alone, so WHAT is
// computed is independent of WHEN, or with whom, the scheduler steps it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "ml/infer.hpp"

namespace ota::ml {

class DecodeScheduler {
 public:
  struct Options {
    /// Cap on concurrently-decoding sessions.  Arrivals beyond it queue and
    /// join the batch as earlier sequences retire.  Must be positive: a
    /// batch that can never admit a request would hang every Ticket::wait()
    /// forever, so the constructor throws InvalidArgument instead.
    int max_batch = 64;
    /// Numeric tier every session decodes at.  kDouble (default) is the
    /// bit-identity reference; kFloat32 decodes through the engine's f32
    /// snapshot — agreement-gated, see ml/precision.hpp.  Validated at
    /// construction (an out-of-range cast is refused at the door).
    Precision precision = Precision::kDouble;
  };

  /// One-shot handle for a submitted request.  Created by submit(); waiters
  /// and the scheduler thread may touch it concurrently.
  class Ticket {
   public:
    /// Blocks until the request finishes and returns its decoded tokens.
    /// Rethrows the request's error instead (bad input at admission,
    /// common::Cancelled when cancelled, expired, or shut down drainless).
    /// Idempotent: repeated calls return (or rethrow) the same outcome.
    const std::vector<nlp::TokenId>& wait();

    /// True once the outcome (tokens or error) is published.
    bool done() const;

   private:
    friend class DecodeScheduler;
    mutable std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::vector<nlp::TokenId> tokens;  ///< written pre-publication by the
                                       ///< scheduler thread only
    std::exception_ptr error;
    std::vector<nlp::TokenId> src;
    int64_t max_tokens = 0;
    CancelToken cancel;  ///< the submitter's; read once per round
  };

  /// Spawns the scheduler thread.  Admission encodes and each round's
  /// groups step in parallel on `pool`.  `engine` and `pool` must outlive the scheduler.  Throws
  /// InvalidArgument for opt.max_batch < 1 or a forged opt.precision —
  /// before any thread is spawned.
  /// (Two overloads rather than a defaulted Options argument: a nested
  /// struct with member initializers cannot default-construct inside its
  /// own enclosing class definition.)
  explicit DecodeScheduler(const InferenceEngine& engine);
  DecodeScheduler(const InferenceEngine& engine, Options opt,
                  par::ThreadPool& pool = par::global_pool());

  /// shutdown(true): outstanding requests finish before the thread exits.
  ~DecodeScheduler();
  DecodeScheduler(const DecodeScheduler&) = delete;
  DecodeScheduler& operator=(const DecodeScheduler&) = delete;

  /// Enqueues one decode request; returns immediately.  Throws
  /// InvalidArgument for max_tokens <= 0 or after shutdown() — a request
  /// that could never be served is refused at the door, not queued.
  /// Once `cancel` fires (its owner cancels it or its deadline passes) the
  /// request resolves with ota::Cancelled at the next round, whether it is
  /// still queued or already decoding in the dynamic batch: a live sequence
  /// leaves the batch mid-flight and its slot frees for the next admission.
  /// A cancel can lose the race with completion; the request still
  /// resolves exactly once.
  std::shared_ptr<Ticket> submit(std::vector<nlp::TokenId> src,
                                 int64_t max_tokens,
                                 const CancelToken& cancel = {});

  /// Stops accepting submissions and joins the scheduler thread.
  /// drain=true serves every outstanding request first; drain=false answers
  /// every unfinished request with common::Cancelled.  Either way each
  /// request resolves exactly once: none lost, none double-served.
  /// Idempotent; the first call's drain mode wins.
  void shutdown(bool drain = true);

  /// Monotone counters, readable at any time (consistent snapshot).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t served = 0;        ///< tickets resolved with tokens
    uint64_t failed = 0;        ///< tickets resolved with an error
    uint64_t cancelled = 0;     ///< tickets resolved with Cancelled
    uint64_t rounds = 0;        ///< scheduler rounds that stepped >= 1 session
    uint64_t session_steps = 0; ///< total session token steps (rows)
    uint64_t peak_batch = 0;    ///< widest dynamic batch observed
    /// Per-tier split of session_steps (tokens_double + tokens_f32 ==
    /// session_steps), so serving dashboards can see which tier paid for
    /// the traffic.
    uint64_t tokens_double = 0;
    uint64_t tokens_f32 = 0;
    /// Mean sessions advanced per round — the coalescing figure of merit:
    /// 1.0 means the engine ran serially, > 1 means requests genuinely
    /// shared rounds.
    double mean_batch_occupancy() const {
      return rounds > 0
                 ? static_cast<double>(session_steps) / static_cast<double>(rounds)
                 : 0.0;
    }
  };
  Stats stats() const;

 private:
  struct ActiveRequest;
  void loop();
  /// One scheduler round: sleep/admit/encode/step/retire.  Returns false
  /// when the scheduler should exit (drained, or drainless shutdown).
  /// Failures it does not contain itself (per-session errors resolve only
  /// their own ticket inside) are contained by loop() via fail_round.
  bool run_round(std::vector<ActiveRequest>& active,
                 std::vector<std::shared_ptr<Ticket>>& admitted);
  /// Round-level failure containment: resolves every unresolved ticket the
  /// failed round was carrying as Failed with `err` (cancel-marked ones as
  /// Cancelled) and clears the batch, so one poisoned round can never take
  /// down the scheduler thread — later submissions decode normally.
  void fail_round(std::vector<ActiveRequest>& active,
                  std::vector<std::shared_ptr<Ticket>>& admitted,
                  const std::exception_ptr& err);
  static void publish(const std::shared_ptr<Ticket>& ticket);

  const InferenceEngine& engine_;
  Options opt_;
  par::ThreadPool& pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Ticket>> pending_;
  bool stop_ = false;
  bool drain_ = true;
  Stats stats_;

  std::mutex join_mu_;  ///< serializes shutdown()'s join
  std::thread thread_;
};

}  // namespace ota::ml
