#include "ml/decode_scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"

namespace ota::ml {

using nlp::TokenId;

namespace {

/// Door policy: a non-positive max_batch admits requests that can never
/// join a batch and hangs every Ticket::wait() forever — refuse it at
/// construction (before any thread is spawned), same as the
/// max_tokens <= 0 check in submit().
DecodeScheduler::Options validated(DecodeScheduler::Options opt) {
  if (opt.max_batch < 1) {
    throw InvalidArgument(
        "DecodeScheduler: max_batch must be positive, got " +
        std::to_string(opt.max_batch) +
        " (a batch that can never admit a request would hang every wait)");
  }
  validated_precision(opt.precision, "DecodeScheduler");
  return opt;
}

/// Every Cancelled a ticket resolves with is built here.
std::exception_ptr cancelled(const std::string& what) {
  return std::make_exception_ptr(
      Cancelled("DecodeScheduler: request " + what));
}

}  // namespace

/// One live sequence in the dynamic batch.  Owned by the scheduler thread;
/// pool workers touch exactly one ActiveRequest per round (caller-indexed),
/// so requests never share mutable state.
struct DecodeScheduler::ActiveRequest {
  std::shared_ptr<Ticket> ticket;
  std::unique_ptr<InferenceEngine::Session> session;
  bool finished = false;
  bool cancelled = false;  ///< finished via cancellation, not tokens/error
};

const std::vector<TokenId>& DecodeScheduler::Ticket::wait() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [this] { return finished; });
  if (error) {
    // Rethrow a copy constructed on THIS thread, not the stored exception
    // object itself.  rethrow_exception would hand waiters a reference to
    // the scheduler thread's object, whose lifetime is then governed by the
    // libstdc++ exception refcount — synchronization TSan cannot observe
    // (libstdc++ is uninstrumented), so a handler far up the stack would
    // appear to race the scheduler's release of its ticket reference.  The
    // copy happens while this thread still holds the ticket alive, so every
    // access is ordered through the instrumented shared_ptr refcount.
    try {
      std::rethrow_exception(error);
    } catch (const Cancelled& e) {
      throw Cancelled(e.what());
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(e.what());
    } catch (const fault::InjectedFault& e) {
      // Most-derived subtypes first, so the copy preserves the dynamic type:
      // the campaign server classifies a ticket's failure (transient
      // ConvergenceError => retry; InjectedFault carries its site) from
      // exactly what this rethrows.
      throw fault::InjectedFault(e.site(), e.what());
    } catch (const ConvergenceError& e) {
      throw ConvergenceError(e.what());
    } catch (const Error& e) {
      throw Error(e.what());
    }
    // Non-ota exceptions (none today) propagate from the rethrow as-is.
  }
  return tokens;
}

bool DecodeScheduler::Ticket::done() const {
  std::lock_guard<std::mutex> lk(mu);
  return finished;
}

DecodeScheduler::DecodeScheduler(const InferenceEngine& engine)
    : DecodeScheduler(engine, Options()) {}

DecodeScheduler::DecodeScheduler(const InferenceEngine& engine, Options opt,
                                 par::ThreadPool& pool)
    : engine_(engine), opt_(validated(opt)), pool_(pool) {
  thread_ = std::thread([this] { loop(); });
}

DecodeScheduler::~DecodeScheduler() { shutdown(/*drain=*/true); }

std::shared_ptr<DecodeScheduler::Ticket> DecodeScheduler::submit(
    std::vector<TokenId> src, int64_t max_tokens, const CancelToken& cancel) {
  if (max_tokens <= 0) {
    throw InvalidArgument(
        "DecodeScheduler::submit: max_tokens must be positive, got " +
        std::to_string(max_tokens) +
        " (a zero token budget would silently decode nothing)");
  }
  auto ticket = std::make_shared<Ticket>();
  ticket->src = std::move(src);
  ticket->max_tokens = max_tokens;
  ticket->cancel = cancel;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument(
          "DecodeScheduler::submit: scheduler is shut down and no longer "
          "accepts requests");
    }
    pending_.push_back(ticket);
    ++stats_.submitted;
  }
  cv_.notify_all();
  return ticket;
}

void DecodeScheduler::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stop_) {
      stop_ = true;
      drain_ = drain;
    }
  }
  cv_.notify_all();
  // Serialize the join so concurrent shutdown()/destructor calls are safe.
  std::lock_guard<std::mutex> jl(join_mu_);
  if (thread_.joinable()) thread_.join();
}

DecodeScheduler::Stats DecodeScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void DecodeScheduler::publish(const std::shared_ptr<Ticket>& ticket) {
  {
    std::lock_guard<std::mutex> lk(ticket->mu);
    ticket->finished = true;
  }
  ticket->cv.notify_all();
}

void DecodeScheduler::loop() {
  std::vector<ActiveRequest> active;
  std::vector<std::shared_ptr<Ticket>> admitted;
  for (;;) {
    try {
      if (!run_round(active, admitted)) return;
    } catch (...) {
      // Round-level containment: a failure escaping the per-ticket handlers
      // inside run_round (batch machinery, an injected round fault) fails
      // the tickets that round was carrying — never the scheduler thread.
      // Requests submitted afterwards decode normally.
      fail_round(active, admitted, std::current_exception());
    }
  }
}

void DecodeScheduler::fail_round(std::vector<ActiveRequest>& active,
                                 std::vector<std::shared_ptr<Ticket>>& admitted,
                                 const std::exception_ptr& err) {
  uint64_t failed = 0, cancelled = 0;
  // Tickets admitted but not yet promoted to sessions (moved-from slots are
  // null; a ticket already resolved by the admission path is done).
  for (auto& t : admitted) {
    if (t && !t->done()) {
      t->error = err;
      ++failed;
      publish(t);
    }
  }
  admitted.clear();
  for (auto& a : active) {
    if (!a.ticket || a.ticket->done()) continue;
    if (!a.ticket->error) {
      a.ticket->error = err;
      ++failed;
    } else if (a.cancelled) {
      ++cancelled;  // the round's cancel sweep marked it before the failure
    } else {
      ++failed;  // a per-session error set pre-publication
    }
    publish(a.ticket);
  }
  active.clear();
  std::lock_guard<std::mutex> lk(mu_);
  stats_.failed += failed;
  stats_.cancelled += cancelled;
}

bool DecodeScheduler::run_round(std::vector<ActiveRequest>& active,
                                std::vector<std::shared_ptr<Ticket>>& admitted) {
  std::unique_lock<std::mutex> queue_lk(mu_);
  // Only sleep when the batch is empty: with live sessions the loop keeps
  // stepping and just soaks up whatever new arrivals are pending.
  if (active.empty()) {
    cv_.wait(queue_lk, [this] { return stop_ || !pending_.empty(); });
  }
  if (stop_ && !drain_) {
    // Drainless shutdown: answer every queued and in-flight request right
    // here, so no waiter blocks forever.
    const auto resolve = [this](const std::shared_ptr<Ticket>& t) {
      t->error = cancelled("cancelled by shutdown");
      ++stats_.cancelled;
      publish(t);
    };
    for (const auto& t : pending_) resolve(t);
    for (const auto& a : active) resolve(a.ticket);
    pending_.clear();
    active.clear();
    return false;
  }
  if (stop_ && pending_.empty() && active.empty()) return false;  // drained

  // The round's one cancellation test, against its one clock read: a ticket
  // whose token has fired gets its Cancelled error, naming the reason and
  // `phase`, and the caller accounts and publishes it when its phase allows.
  const auto now = CancelToken::Clock::now();
  const auto cancel_if_fired = [now](Ticket& t, const char* phase) {
    const CancelToken::Reason why = t.cancel.reason(now);
    if (why == CancelToken::Reason::kLive) return false;
    t.error = cancelled(std::string(why == CancelToken::Reason::kCancelled
                                        ? "cancelled "
                                        : "deadline exceeded ")
                            .append(phase));
    return true;
  };

  // Cancellation sweep over the wait queue: a fired request resolves right
  // here and never occupies a batch slot it could not use.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (cancel_if_fired(**it, "before decoding")) {
      ++stats_.cancelled;
      publish(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Continuous admission: arrivals join the running batch up to max_batch;
  // the rest queue until sequences retire.
  while (!pending_.empty() &&
         active.size() + admitted.size() < static_cast<size_t>(opt_.max_batch)) {
    admitted.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  queue_lk.unlock();

  // Admission runs outside the queue lock so submitters are never blocked
  // behind it.  A ticket that leaves here unserved is counted before it is
  // published, and its slot is emptied.
  const auto resolve = [this](std::shared_ptr<Ticket>& t,
                              uint64_t Stats::*counter) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++(stats_.*counter);
    }
    publish(t);
    t.reset();
  };
  if (!admitted.empty()) {
    STAT_REGION("ml.scheduler.admit");
    // Neither vector grows past `room`, so the slots the builds write keep
    // their addresses.
    const size_t room = static_cast<size_t>(opt_.max_batch) - active.size();
    admitted.reserve(room);
    std::vector<std::unique_ptr<InferenceEngine::Session>> sessions(room);
    int64_t building = 0;  // builds in flight, guarded by mu_
    // Every build has finished before this block is left, by any path.
    struct JoinBuilds {
      DecodeScheduler& s;
      const int64_t& building;
      ~JoinBuilds() {
        std::unique_lock<std::mutex> lk(s.mu_);
        s.cv_.wait(lk, [this] { return building == 0; });
      }
    } join{*this, building};
    for (size_t checked = 0;;) {
      // In FIFO order on this thread, the cancel check and the encode fault
      // site: a request cancelled since the sweep above resolves without
      // paying the encode, and a poisoned encode fails its own ticket.
      // Then its session (the encode pass) is built on the pool into its
      // own slot; a request the engine refuses (empty input, over-long
      // input) fails its ticket there.
      for (; checked < admitted.size(); ++checked) {
        std::shared_ptr<Ticket>& t = admitted[checked];
        if (cancel_if_fired(*t, "before decoding")) {
          resolve(t, &Stats::cancelled);
          continue;
        }
        try {
          FAULT_SITE("ml.session.encode");
        } catch (...) {
          t->error = std::current_exception();
          resolve(t, &Stats::failed);
          continue;
        }
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++building;
        }
        try {
          pool_.submit([this, &building, ticket = t.get(),
                        slot = &sessions[checked]] {
            try {
              *slot = std::make_unique<InferenceEngine::Session>(
                  engine_, ticket->src, opt_.precision);
            } catch (...) {
              // Pre-publication the ticket belongs to the scheduler.
              ticket->error = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(mu_);
            if (--building == 0) cv_.notify_all();
          });
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu_);
          --building;
          throw;
        }
      }
      // While any build runs, arrivals join this admission, so a burst of
      // submissions forms one batch even when this thread woke on its
      // first request.
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return building == 0 || (!pending_.empty() && admitted.size() < room);
      });
      if (pending_.empty() || admitted.size() == room) break;  // builds done
      while (!pending_.empty() && admitted.size() < room) {
        admitted.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }
    uint64_t joined = 0;
    for (size_t i = 0; i < admitted.size(); ++i) {
      if (!admitted[i]) continue;
      if (!sessions[i]) {
        resolve(admitted[i], &Stats::failed);
        continue;
      }
      ActiveRequest a;
      a.ticket = std::move(admitted[i]);
      a.session = std::move(sessions[i]);
      active.push_back(std::move(a));
      ++joined;
    }
    admitted.clear();
    STAT_COUNTER_ADD("ml.scheduler.admitted", joined);
  }
  if (active.empty()) return true;

  // Mid-flight cancellation: a live sequence whose token fired retires from
  // the dynamic batch before this round steps — its slot frees for the next
  // admission and its waiters wake with Cancelled instead of paying for
  // tokens nobody wants.
  size_t retired_by_cancel = 0;
  for (ActiveRequest& a : active) {
    if (cancel_if_fired(*a.ticket, "mid-decode")) {
      a.finished = true;
      a.cancelled = true;
      ++retired_by_cancel;
    }
  }
  const size_t batch = active.size() - retired_by_cancel;

  // Injectable round failure: fires before the step fan-out, with the
  // batch's tickets in flight, so it exercises loop()'s fail_round
  // containment rather than any per-ticket handler.
  FAULT_SITE("ml.scheduler.round");

  // One continuous-batching round: every live session advances one token
  // by the greedy rule, fanned out across the pool, and each chunk steps its
  // live sessions as one group.  Each worker touches only its own
  // caller-indexed requests, and a row's numbers depend on its own session
  // alone, so the per-request token stream is exactly greedy_decode's
  // whatever the interleaving or grouping.
  STAT_REGION("ml.scheduler.round");
  STAT_COUNTER_ADD("ml.scheduler.batch_sessions", batch);
  pool_.parallel_for(active.size(), [&](size_t begin, size_t end) {
    // Pre-publication the ticket's token buffer belongs to the scheduler;
    // waiters read it only after publish().
    std::vector<InferenceEngine::GreedyRow> rows;
    rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      ActiveRequest& a = active[i];
      InferenceEngine::GreedyRow& row = rows.emplace_back(
          a.session.get(), &a.ticket->tokens, a.ticket->max_tokens);
      row.live = !a.finished;  // cancelled above: do not step it
      if (!row.live) continue;
      try {
        FAULT_SITE("ml.session.step");  // per row, before it joins the group
      } catch (...) {
        row.error = std::current_exception();
        row.live = false;
      }
    }
    InferenceEngine::Session::greedy_step_group(rows);
    for (size_t i = begin; i < end; ++i) {
      ActiveRequest& a = active[i];
      const InferenceEngine::GreedyRow& row = rows[i - begin];
      if (a.finished) continue;
      if (row.error) a.ticket->error = row.error;
      a.finished = !row.live;
    }
  });

  // Count the round before publishing any ticket: once a waiter's wait()
  // returns, stats() must already include that request.
  uint64_t served = 0, failed = 0, cancelled = 0;
  for (const auto& a : active) {
    if (!a.finished) continue;
    if (a.cancelled) {
      ++cancelled;
    } else {
      (a.ticket->error ? failed : served) += 1;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (batch > 0) {
      // A round is only a round if at least one session stepped; a sweep
      // that merely retired cancelled sequences must not dilute the
      // occupancy figure of merit.
      ++stats_.rounds;
      stats_.session_steps += batch;
      if (opt_.precision == Precision::kFloat32) {
        stats_.tokens_f32 += batch;
      } else {
        stats_.tokens_double += batch;
      }
      stats_.peak_batch = std::max<uint64_t>(stats_.peak_batch, batch);
    }
    stats_.served += served;
    stats_.failed += failed;
    stats_.cancelled += cancelled;
  }

  // Retire finished sequences immediately — their slots free up for the
  // next round's admissions; survivors keep their relative order.
  size_t live = 0;
  for (auto& a : active) {
    if (a.finished) {
      publish(a.ticket);
    } else {
      if (live != static_cast<size_t>(&a - active.data())) {
        active[live] = std::move(a);
      }
      ++live;
    }
  }
  active.resize(live);
  return true;
}

}  // namespace ota::ml
