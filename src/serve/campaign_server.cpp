#include "serve/campaign_server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The layer a fault site name belongs to: the segment before the first dot
/// ("spice.dc.newton" -> "spice").
std::string layer_of(const std::string& site) {
  return site.substr(0, site.find('.'));
}

}  // namespace

// ---------------------------------------------------------------------------
// ScheduledPredictor

std::string ScheduledPredictor::predict(const std::string& encoder_text,
                                        int max_tokens,
                                        const CancelToken& cancel) const {
  // The campaign's token rides into the scheduler, so a cancelled
  // campaign's live decode retires from the dynamic batch at the next round
  // instead of decoding to completion; Ticket::wait rethrows it as
  // ota::Cancelled.  The same tokenizer both ways as SizingModel::predict,
  // so the round-tripped text is byte-identical to it.
  return model_.tokenizer().decode(
      scheduler_
          .submit(model_.tokenizer().encode(encoder_text),
                  static_cast<int64_t>(max_tokens), cancel)
          ->wait());
}

// ---------------------------------------------------------------------------
// CampaignServer::Job

const CampaignResult& CampaignServer::Job::wait() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return finished; });
  return result;
}

bool CampaignServer::Job::done() const {
  std::lock_guard<std::mutex> lk(mu);
  return finished;
}

void CampaignServer::Job::cancel() {
  // Fire the token first: an in-flight campaign observes it at its next
  // stage boundary and its live decode ticket at the next scheduler round.
  request.options.cancel.cancel();
  std::lock_guard<std::mutex> lk(mu);
  if (finished || started) return;  // resolved, or a worker owns it now
  // Still queued: resolve right here so waiters wake immediately.  The
  // worker that eventually pops the job sees `finished` and only accounts
  // it — the resolves-exactly-once contract is the job mutex hand-off.
  result.status = CampaignStatus::Cancelled;
  result.error = "campaign cancelled by caller";
  result.queue_seconds = seconds_since(submitted_at);
  result.total_seconds = result.queue_seconds;
  finished = true;
  cv.notify_all();
}

void CampaignServer::publish(const std::shared_ptr<Job>& job) {
  // job->result was written by the resolving thread before this call; the
  // mutex hand-off makes it visible to every waiter that observes finished.
  {
    std::lock_guard<std::mutex> lk(job->mu);
    job->finished = true;
  }
  job->cv.notify_all();
}

// ---------------------------------------------------------------------------
// CampaignServer

CampaignServer::CampaignServer() : CampaignServer(Options()) {}

CampaignServer::CampaignServer(Options opt) : opt_(opt) {
  // Door policy, same as the scheduler's: options that could only ever hang
  // or corrupt accounting are refused before any thread is spawned.
  if (opt_.workers < 0) {
    throw InvalidArgument(
        "CampaignServer: workers must be >= 0 (0 = auto), got " +
        std::to_string(opt_.workers));
  }
  if (opt_.max_queue_depth < 0) {
    throw InvalidArgument(
        "CampaignServer: max_queue_depth must be >= 0 (0 = unbounded), got " +
        std::to_string(opt_.max_queue_depth));
  }
  if (opt_.max_retries < 0) {
    throw InvalidArgument(
        "CampaignServer: max_retries must be >= 0 (0 = no retry), got " +
        std::to_string(opt_.max_retries));
  }
  const int n = par::resolve_threads(opt_.workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CampaignServer::~CampaignServer() { shutdown(true); }

void CampaignServer::register_topology(
    const std::string& name, circuit::Topology topology,
    const device::Technology& tech,
    std::shared_ptr<const core::SizingModel> model,
    std::shared_ptr<const core::LutSet> luts,
    ml::DecodeScheduler::Options decode) {
  if (!model || !luts) {
    throw InvalidArgument("CampaignServer::register_topology: null model/luts");
  }
  // engine() doubles as the trained-model check (throws InvalidArgument
  // otherwise) and is what the decode scheduler batches on.
  const ml::InferenceEngine& engine = model->engine();

  // Door policy before construction: reserve the name under the lock so a
  // duplicate-name or post-shutdown registration throws without ever paying
  // the scheduler thread spawn+join — and two racing registrations of the
  // same name cannot both construct.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument(
          "CampaignServer::register_topology: server is shut down");
    }
    if (!topologies_.emplace(name, nullptr).second) {
      throw InvalidArgument("CampaignServer::register_topology: duplicate '" +
                            name + "'");
    }
  }

  auto entry = std::make_unique<TopologyEntry>();
  try {
    entry->topology = std::move(topology);
    entry->tech = tech;
    entry->model = std::move(model);
    entry->luts = std::move(luts);
    // The builder references the entry's own copies; the entry is heap-owned
    // and never removed from the map, so the references stay valid for the
    // server's lifetime.
    entry->builder =
        std::make_unique<core::SequenceBuilder>(entry->topology, entry->tech);
    // The scheduler refuses a max_batch < 1 or a forged tier before its
    // thread starts; the catch below then frees the name.
    entry->scheduler = std::make_unique<ml::DecodeScheduler>(engine, decode);
    entry->predictor = std::make_unique<ScheduledPredictor>(
        *entry->model, *entry->scheduler);
  } catch (...) {
    // Release the reservation: the name was never visible as a valid
    // topology (submit treats the nullptr slot as unknown).
    std::lock_guard<std::mutex> lk(mu_);
    topologies_.erase(name);
    throw;
  }

  std::lock_guard<std::mutex> lk(mu_);
  topologies_.find(name)->second = std::move(entry);
}

std::shared_ptr<CampaignServer::Job> CampaignServer::submit(
    CampaignRequest request) {
  if (request.options.cancel.cancellable()) {
    throw InvalidArgument(
        "CampaignServer::submit: options.cancel must be unset; the server "
        "makes each job's token (Job::cancel(), deadline_seconds)");
  }
  if (std::isnan(request.deadline_seconds)) {
    throw InvalidArgument("CampaignServer::submit: deadline_seconds is NaN");
  }
  auto job = std::make_shared<Job>();
  job->submitted_at = std::chrono::steady_clock::now();
  request.options.cancel = CancelToken(
      deadline_after(job->submitted_at, request.deadline_seconds));
  job->request = std::move(request);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument("CampaignServer::submit: server is shut down");
    }
    const auto topo_it = topologies_.find(job->request.topology);
    if (topo_it == topologies_.end() || !topo_it->second) {
      throw InvalidArgument("CampaignServer::submit: unknown topology '" +
                            job->request.topology + "'");
    }
    // Admission control: at capacity the submission is refused outright.
    if (opt_.max_queue_depth > 0 &&
        queue_.size() >= static_cast<size_t>(opt_.max_queue_depth)) {
      ++rejected_;
      throw ServerOverloaded("CampaignServer::submit: queue full (" +
                             std::to_string(queue_.size()) + "/" +
                             std::to_string(opt_.max_queue_depth) + " jobs)");
    }
    queue_.push_back(job);
    ++submitted_;
    peak_queue_depth_ =
        std::max<uint64_t>(peak_queue_depth_, queue_.size());
  }
  cv_.notify_one();
  return job;
}

void CampaignServer::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    TopologyEntry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && !drain_) {
        // Drainless shutdown: answer everything unstarted, exactly once.
        while (!queue_.empty()) {
          auto cancelled = queue_.front();
          queue_.pop_front();
          ++cancelled_;
          const double waited = seconds_since(cancelled->submitted_at);
          std::lock_guard<std::mutex> jk(cancelled->mu);
          if (cancelled->finished) continue;  // Job::cancel() got there first
          cancelled->result.status = CampaignStatus::Cancelled;
          cancelled->result.error = "campaign cancelled by shutdown";
          // The job's whole life was spent in queue, so the queue time IS
          // the total time.
          cancelled->result.queue_seconds = waited;
          cancelled->result.total_seconds = waited;
          cancelled->finished = true;
          cancelled->cv.notify_all();
        }
        return;
      }
      if (queue_.empty()) return;  // stop_ && drain_: queue fully served
      job = queue_.front();
      queue_.pop_front();
      // submit() validated the name, and filled entries are never removed,
      // so the lookup cannot fail; the bare pointer stays valid outside the
      // lock.
      entry = topologies_.find(job->request.topology)->second.get();
    }

    const double queued = seconds_since(job->submitted_at);
    STAT_SECONDS("serve.campaign.queue_wait", queued);
    // Claim the job.  If Job::cancel() resolved it while queued, only the
    // accounting is left to do.
    bool already_resolved = false;
    int prior_retries = 0;
    {
      std::lock_guard<std::mutex> jk(job->mu);
      if (job->finished) {
        already_resolved = true;
      } else {
        job->started = true;
        prior_retries = job->retries;
      }
    }
    if (already_resolved) {
      std::lock_guard<std::mutex> lk(mu_);
      ++cancelled_;
      continue;
    }

    // Pickup check: a job whose token fired while it waited (its deadline
    // passed, or a cancel raced this claim) resolves without a single
    // decode or simulation.  Only a deadline counts as expired.
    const CancelToken::Reason why =
        job->request.options.cancel.reason(std::chrono::steady_clock::now());
    if (why != CancelToken::Reason::kLive) {
      const bool expired = why == CancelToken::Reason::kDeadlineExceeded;
      CampaignResult res;
      res.status = CampaignStatus::Cancelled;
      res.error = expired ? "campaign deadline exceeded after " +
                                std::to_string(queued) + "s in queue"
                          : "campaign cancelled by caller";
      res.queue_seconds = queued;
      res.total_seconds = seconds_since(job->submitted_at);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++cancelled_;
        if (expired) ++expired_;
      }
      job->result = std::move(res);
      publish(job);
      continue;
    }

    CampaignResult res;
    res.queue_seconds = queued;
    try {
      STAT_REGION("serve.campaign.run");
      // Injectable worker-side failure, before the copilot even constructs:
      // the serve layer's own permanent fault.
      FAULT_SITE("serve.worker.campaign");
      // A fresh copilot per campaign: the copilot itself is cheap (the
      // expensive state — model, engine, LUTs, builder — is shared through
      // the entry), and private mutable state is what makes the result
      // independent of which worker runs it.
      core::SizingCopilot copilot(entry->topology, entry->tech, *entry->builder,
                                  *entry->predictor, *entry->luts);
      // The job's token rides in its options, into the predictor and decode
      // scheduler.
      res.outcome = copilot.size(job->request.target, job->request.options);
      res.status = CampaignStatus::Served;
    } catch (const Cancelled& e) {
      res.status = CampaignStatus::Cancelled;
      res.error = e.what();
    } catch (const ConvergenceError& e) {
      // Transient failure.  Campaigns are hermetic (a fresh copilot starting
      // from nominal widths), so a re-run computes exactly what a first run
      // would — requeue at the back of the FIFO up to the retry budget.  A
      // requeued job is the same job: not re-admitted, not re-counted.
      if (prior_retries < opt_.max_retries) {
        {
          std::lock_guard<std::mutex> jk(job->mu);
          job->retries = prior_retries + 1;
          // Back in the queue, Job::cancel() may resolve it directly again.
          job->started = false;
        }
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++retried_;
          // Deliberately past admission control: a retry is continuation of
          // an admitted job, and dropping it would break exactly-once.
          queue_.push_back(job);
          peak_queue_depth_ =
              std::max<uint64_t>(peak_queue_depth_, queue_.size());
        }
        STAT_COUNTER("serve.campaign.retries");
        cv_.notify_one();
        continue;
      }
      res.status = CampaignStatus::Failed;
      res.error = "ConvergenceError (transient, " +
                  std::to_string(prior_retries) + "/" +
                  std::to_string(opt_.max_retries) +
                  " retries used): " + e.what();
    } catch (const fault::InjectedFault& e) {
      res.status = CampaignStatus::Failed;
      res.error = "InjectedFault (site '" + e.site() + "', layer '" +
                  layer_of(e.site()) + "'): " + e.what();
    } catch (const Error& e) {
      res.status = CampaignStatus::Failed;
      res.error = std::string("ota::Error: ") + e.what();
    } catch (const std::exception& e) {
      res.status = CampaignStatus::Failed;
      res.error = std::string("std::exception: ") + e.what();
    } catch (...) {
      // Even a non-standard exception is recorded, never swallowed silently.
      res.status = CampaignStatus::Failed;
      res.error = "campaign failed with a non-standard exception";
    }
    res.retries = prior_retries;
    res.total_seconds = seconds_since(job->submitted_at);

    {
      std::lock_guard<std::mutex> lk(mu_);
      switch (res.status) {
        case CampaignStatus::Served:
          ++served_;
          if (prior_retries > 0) ++recovered_;
          break;
        case CampaignStatus::Failed: ++failed_; break;
        case CampaignStatus::Cancelled: ++cancelled_; break;
      }
    }
    job->result = std::move(res);
    publish(job);
  }
}

void CampaignServer::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stop_) {
      stop_ = true;
      drain_ = drain;
    }
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> jk(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

CampaignServer::Stats CampaignServer::stats() const {
  Stats s;
  std::lock_guard<std::mutex> lk(mu_);
  s.submitted = submitted_;
  s.served = served_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.rejected = rejected_;
  s.expired = expired_;
  s.retried = retried_;
  s.recovered = recovered_;
  s.queue_depth = queue_.size();
  s.peak_queue_depth = peak_queue_depth_;
  for (const auto& [name, entry] : topologies_) {
    if (!entry) continue;  // a registration reserving the name right now
    const auto d = entry->scheduler->stats();
    s.decode.submitted += d.submitted;
    s.decode.served += d.served;
    s.decode.failed += d.failed;
    s.decode.cancelled += d.cancelled;
    s.decode.rounds += d.rounds;
    s.decode.session_steps += d.session_steps;
    s.decode.tokens_double += d.tokens_double;
    s.decode.tokens_f32 += d.tokens_f32;
    s.decode.peak_batch = std::max(s.decode.peak_batch, d.peak_batch);
  }
  return s;
}

}  // namespace ota::serve
