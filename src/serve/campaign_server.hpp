// Sizing-as-a-service: a long-running campaign server.
//
// The paper's copilot runs one sizing campaign at a time; this subsystem
// turns it into a system that serves sustained concurrent load.  A
// CampaignServer owns, per registered topology, one trained SizingModel
// (with its compiled ml::InferenceEngine) and one continuous-batching
// ml::DecodeScheduler over that engine.  Clients submit() campaign requests
// from any thread and block on a Job handle; a fixed set of worker threads
// drains the FIFO job queue, running each campaign's Stage I-IV refinement
// loop on a fresh copilot over the topology's ScheduledPredictor.  Each
// Stage-II prediction is one blocking call into the topology's shared
// scheduler, where the predictions of every live campaign coalesce into
// dynamic decode batches on the one engine — the LLM-serving architecture,
// with SPICE verification taking the place of the client's "think time".
//
// Determinism contract: a campaign's SizingOutcome (everything except the
// wall-clock `seconds`) is bit-identical to running the serial
// SizingCopilot::size on the same request — for any worker count, arrival
// order, or decode batch composition.  Each campaign runs on its own copilot
// copy and its decodes run in private scheduler sessions, so concurrency
// changes only WHEN work happens, never WHAT is computed.
//
// Queue contract: every submitted job resolves exactly once.  shutdown(true)
// serves everything outstanding first; shutdown(false) answers unstarted
// jobs with CampaignStatus::Cancelled.  Nothing is lost, nothing runs twice.
// A campaign that throws a transient ConvergenceError requeues (same job, no
// new submission) up to Options::max_retries times before counting as
// Failed, so exactly-once accounting is unchanged by the retry policy.
//
// Overload contract: the job queue is bounded by Options::max_queue_depth
// (0 = unbounded).  At capacity, submit() either throws ota::ServerOverloaded
// (Reject) or waits for a worker to make room (Block, with an optional
// timeout that also throws ServerOverloaded) — a burst of submissions can
// never grow memory or tail latency without bound.  Each job owns one
// ota::CancelToken, fired by Job::cancel() or by its
// CampaignRequest::deadline_seconds, and the worker hands it to the copilot
// as is: queued jobs resolve as Cancelled without running, in-flight
// campaigns stop at the next copilot stage boundary, and their live decode
// tickets retire from the dynamic batch mid-round.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/copilot.hpp"
#include "core/sizing_model.hpp"
#include "ml/decode_scheduler.hpp"

namespace ota::serve {

/// Stage II backed by a topology's shared DecodeScheduler: predict
/// tokenizes, submits with the caller's token, blocks on the ticket and
/// detokenizes.  Many campaigns share one instance concurrently.  Every
/// answer is the model's own greedy decode at the scheduler's tier, which
/// also overrides predict_batch's `precision` (the base's serial loop).
class ScheduledPredictor : public core::Predictor {
 public:
  /// Both references must outlive the predictor; `scheduler` must run over
  /// `model.engine()`.
  ScheduledPredictor(const core::SizingModel& model,
                     ml::DecodeScheduler& scheduler)
      : model_(model), scheduler_(scheduler) {}

  /// Throws what the ticket resolves with: ota::Cancelled once `cancel`
  /// fires (the decode retires from the dynamic batch mid-round), and
  /// InvalidArgument for max_tokens <= 0.
  std::string predict(const std::string& encoder_text, int max_tokens,
                      const CancelToken& cancel = {}) const override;

 private:
  const core::SizingModel& model_;
  ml::DecodeScheduler& scheduler_;
};

/// One sizing campaign: which registered topology, what target, which knobs.
struct CampaignRequest {
  std::string topology;
  core::Specs target;
  /// Copilot knobs.  Leave `options.cancel` unset: submit() refuses a set
  /// one with InvalidArgument and installs the job's own token there.
  core::CopilotOptions options{};
  /// Per-request deadline, in seconds after submit(), carried by the job's
  /// token.  A job whose deadline passes while still queued resolves as
  /// Cancelled without running; one that expires in flight stops through
  /// the cancel path (copilot stage boundaries + mid-round decode
  /// retirement).  <= 0, +inf or beyond the clock's range = no deadline;
  /// NaN throws InvalidArgument.
  double deadline_seconds = 0.0;
};

enum class CampaignStatus {
  Served,     ///< the copilot ran; `outcome` is valid (inspect its .success)
  Failed,     ///< the campaign threw; `error` carries the message
  Cancelled,  ///< cancelled by Job::cancel(), shutdown(false), or a deadline
};

/// What submit() does when the job queue is at Options::max_queue_depth.
enum class OverflowPolicy {
  Reject,  ///< throw ota::ServerOverloaded immediately
  Block,   ///< wait for space (bounded by Options::block_timeout_seconds)
};

struct CampaignResult {
  CampaignStatus status = CampaignStatus::Failed;
  /// Failed: the original exception's what(), prefixed with its type and —
  /// for injected faults — the fault site, so the failing layer is
  /// diagnosable from the result alone.
  std::string error;
  core::SizingOutcome outcome;
  /// Times the campaign was requeued by the transient-retry policy before
  /// resolving (0 = first run resolved it).
  int retries = 0;
  double queue_seconds = 0.0;  ///< submit -> worker pickup
  double total_seconds = 0.0;  ///< submit -> resolution (p50/p99 latency basis)
};

class CampaignServer {
 public:
  struct Options {
    /// Campaign worker threads draining the job queue.  0 = auto
    /// (OTA_THREADS env, else hardware concurrency); negative throws
    /// InvalidArgument.  Workers are dedicated threads, not pool lanes: a
    /// campaign blocks on decode tickets and SPICE runs, and a blocked pool
    /// lane would stall unrelated work.
    int workers = 0;
    /// Per-topology cap on concurrently-decoding sessions.  Each
    /// topology's scheduler fans its rounds out on par::global_pool().
    int max_decode_batch = 64;
    /// Admission control: maximum campaigns waiting in the queue (jobs a
    /// worker has picked up no longer count).  0 = unbounded, the
    /// pre-admission-control behaviour.  Negative throws InvalidArgument.
    int max_queue_depth = 0;
    /// What submit() does when the queue is at max_queue_depth.
    OverflowPolicy overflow = OverflowPolicy::Reject;
    /// Block policy only: longest submit() waits for queue space before
    /// throwing ota::ServerOverloaded.  <= 0, +inf or beyond the clock's
    /// range = wait indefinitely; NaN throws InvalidArgument.
    double block_timeout_seconds = 0.0;
    /// Default numeric tier every topology's decode scheduler runs at
    /// (ml::Precision::kDouble = the bit-identity reference, kFloat32 = the
    /// agreement-gated SIMD serving tier).  register_topology can override
    /// it per topology.  Validated at construction.
    ml::Precision decode_precision = ml::Precision::kDouble;
    /// Bounded retry for transient failures: a campaign that throws
    /// ConvergenceError re-enters the back of the job queue (deterministic
    /// requeue: FIFO order, the same campaign state — campaigns are
    /// hermetic, so a re-run computes exactly what a first run would) up to
    /// this many times before resolving as Failed.  Permanent failures
    /// (anything else) never retry.  0 (default) = fail on first throw;
    /// negative throws InvalidArgument.
    int max_retries = 0;
  };

  CampaignServer();
  /// Throws InvalidArgument for workers < 0, max_decode_batch < 1 (requests
  /// could never join a decode batch and would hang), max_queue_depth < 0,
  /// max_retries < 0 or a NaN block_timeout_seconds — before any worker
  /// thread is spawned.
  explicit CampaignServer(Options opt);
  /// shutdown(true): outstanding campaigns finish before teardown.
  ~CampaignServer();
  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Registers `model` (trained) under `name` and stands up its decode
  /// scheduler.  The server keeps its own Topology/Technology copies, so
  /// the caller's may go out of scope; `model` and `luts` are shared.
  /// Throws InvalidArgument for an untrained model, a duplicate name, an
  /// invalid precision override, or a shut-down server.  Safe to call while
  /// campaigns are in flight (new submissions see the topology immediately).
  /// `precision` overrides Options::decode_precision for this topology's
  /// scheduler (nullopt = the server-wide default), so a fleet can serve
  /// float32 traffic while keeping one topology on the double reference
  /// tier.
  void register_topology(const std::string& name, circuit::Topology topology,
                         const device::Technology& tech,
                         std::shared_ptr<const core::SizingModel> model,
                         std::shared_ptr<const core::LutSet> luts,
                         std::optional<ml::Precision> precision = std::nullopt);

  /// One submitted campaign.  Resolves exactly once.
  class Job {
   public:
    /// Blocks until the campaign resolves; repeated calls return the same
    /// result.
    const CampaignResult& wait();
    bool done() const;

    /// Fires the job's token, from any thread.  A job still in the queue
    /// resolves as Cancelled right here — waiters wake immediately and a
    /// worker never runs it.  A job already running keeps its worker, but
    /// the copilot observes the token at its next stage boundary and any
    /// in-flight decode retires from the dynamic batch mid-round, so the
    /// job resolves as Cancelled shortly after (or as Served if completion
    /// won the race).  Idempotent; the resolves-exactly-once contract holds
    /// either way.
    void cancel();

   private:
    friend class CampaignServer;
    mutable std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    bool started = false;  ///< picked up by a worker; cancel() can no
                           ///< longer resolve it directly
    CampaignResult result;
    /// Written by submit() before the job is shared, read-only afterwards.
    /// `request.options.cancel` is the job's token.
    CampaignRequest request;
    std::chrono::steady_clock::time_point submitted_at;
    /// Times the transient-retry policy has requeued this job (guarded by
    /// mu, like started).
    int retries = 0;
  };

  /// Enqueues one campaign; returns immediately unless the queue is full
  /// under the Block policy.  Throws InvalidArgument for an unregistered
  /// topology, a set `options.cancel`, a NaN `deadline_seconds` or after
  /// shutdown(), and ota::ServerOverloaded when the queue is at
  /// max_queue_depth under the Reject policy (or the Block policy's timeout
  /// elapses waiting for space).
  std::shared_ptr<Job> submit(CampaignRequest request);

  /// Stops accepting submissions and joins the workers.  drain=true serves
  /// the whole queue first; drain=false cancels unstarted jobs (in-flight
  /// campaigns still finish — a campaign is never torn down mid-loop).
  /// Idempotent; the first call's drain mode wins.
  void shutdown(bool drain = true);

  struct Stats {
    /// Jobs admitted to the queue.  Refused submissions (rejected /
    /// timed_out) are NOT counted here, so once everything resolves
    /// submitted == served + failed + cancelled.
    uint64_t submitted = 0;
    uint64_t served = 0;
    uint64_t failed = 0;
    /// Jobs resolved as Cancelled: Job::cancel(), drainless shutdown, or a
    /// deadline (in queue or in flight).
    uint64_t cancelled = 0;
    /// Admission control: submissions refused by the Reject policy.
    uint64_t rejected = 0;
    /// Admission control: Block-policy submissions that hit the timeout.
    uint64_t timed_out = 0;
    /// Jobs whose deadline passed before a worker ran them (a subset of
    /// `cancelled`; in-flight expiry counts only in `cancelled`).
    uint64_t expired = 0;
    /// Transient-retry policy: requeues performed (one job retried twice
    /// counts twice).  A retried job is still in flight — it is NOT yet in
    /// served/failed/cancelled, so exactly-once accounting is untouched.
    uint64_t retried = 0;
    /// Jobs that resolved Served after at least one retry — the figure of
    /// merit for the recovery path.
    uint64_t recovered = 0;
    uint64_t queue_depth = 0;       ///< jobs waiting right now
    uint64_t peak_queue_depth = 0;  ///< deepest the queue has ever been
    /// Decode-scheduler counters summed over every registered topology;
    /// decode.mean_batch_occupancy() > 1 proves cross-campaign coalescing.
    ml::DecodeScheduler::Stats decode;
  };
  Stats stats() const;

  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// Everything the server owns for one registered topology.  Entries are
  /// never removed, so workers may hold bare pointers across a campaign.
  struct TopologyEntry {
    circuit::Topology topology;
    device::Technology tech;
    std::shared_ptr<const core::SizingModel> model;
    std::shared_ptr<const core::LutSet> luts;
    std::unique_ptr<core::SequenceBuilder> builder;
    std::unique_ptr<ml::DecodeScheduler> scheduler;
    std::unique_ptr<ScheduledPredictor> predictor;
  };

  void worker_loop();
  static void publish(const std::shared_ptr<Job>& job);

  Options opt_;

  mutable std::mutex mu_;  ///< guards queue_, topologies_, stop_/drain_, stats
  std::condition_variable cv_;        ///< wakes workers (new job / shutdown)
  std::condition_variable space_cv_;  ///< wakes Block-policy submitters
  std::deque<std::shared_ptr<Job>> queue_;
  /// A nullptr value is a name reservation: register_topology claims the
  /// name under mu_ before paying the entry construction (scheduler thread
  /// spawn), then fills the slot.  submit() treats a reservation as an
  /// unknown topology; filled entries are never removed or replaced.
  std::map<std::string, std::unique_ptr<TopologyEntry>> topologies_;
  bool stop_ = false;
  bool drain_ = true;
  uint64_t submitted_ = 0, served_ = 0, failed_ = 0, cancelled_ = 0;
  uint64_t rejected_ = 0, timed_out_ = 0, expired_ = 0, peak_queue_depth_ = 0;
  uint64_t retried_ = 0, recovered_ = 0;

  std::mutex join_mu_;  ///< serializes shutdown()'s join
  std::vector<std::thread> workers_;
};

}  // namespace ota::serve
