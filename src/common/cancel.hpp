// Cooperative cancellation: one shared flag plus one absolute deadline.
//
// CancelToken is the library's one cancellation type.  The owner of a unit
// of work (a campaign, a decode request) makes a token and hands copies to
// every layer that works on it; each layer polls the token at its natural
// boundary (the copilot at its stage boundaries, the decode scheduler once
// per round) and resolves the work as ota::Cancelled once it has fired.
// Copies share one flag and one deadline, so a cancel() made through any
// copy, on any thread, is seen through all of them.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "common/error.hpp"

namespace ota {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// What reason() reports: not fired, or why it fired.
  enum class Reason { kLive, kCancelled, kDeadlineExceeded };

  /// The inert token: owns no state and never fires; cancel() on it does
  /// nothing.  What a caller passes when its work is not cancellable.
  CancelToken() = default;

  /// A live token: a fresh unset flag, and `deadline` from which on it
  /// fires (Clock::time_point::max() = no deadline).
  explicit CancelToken(Clock::time_point deadline)
      : state_(std::make_shared<State>(deadline)) {}

  /// False only for the inert default token.
  bool cancellable() const { return state_ != nullptr; }

  /// Sets the shared flag, so every copy fires from now on.  A token is a
  /// handle: this changes the shared state, not the handle, hence const.
  /// Idempotent.
  void cancel() const {
    if (state_) state_->cancelled.store(true, std::memory_order_release);
  }

  /// Whether the token has fired by `now`, and why.  A cancel outranks a
  /// deadline that has also passed.  Taking `now` lets one clock read cover
  /// every token a caller tests in one pass.
  Reason reason(Clock::time_point now) const {
    if (!state_) return Reason::kLive;
    if (state_->cancelled.load(std::memory_order_acquire)) {
      return Reason::kCancelled;
    }
    return now >= state_->deadline ? Reason::kDeadlineExceeded : Reason::kLive;
  }

  /// Boundary checkpoint: once the token has fired, throws ota::Cancelled
  /// whose message names `where` and the reason.
  void check(const char* where) const {
    switch (reason(Clock::now())) {
      case Reason::kLive:
        return;
      case Reason::kCancelled:
        throw Cancelled(std::string(where) + ": cancelled");
      case Reason::kDeadlineExceeded:
        throw Cancelled(std::string(where) + ": deadline exceeded");
    }
  }

 private:
  struct State {
    explicit State(Clock::time_point d) : deadline(d) {}
    std::atomic<bool> cancelled{false};
    const Clock::time_point deadline;
  };
  std::shared_ptr<State> state_;
};

/// The absolute deadline `seconds` after `t0`: the one conversion behind
/// every relative timeout knob.  Those knobs read a non-positive value as
/// "none", so it maps to Clock::time_point::max(), no deadline; so do +inf
/// and every timeout beyond the clock's range (about 292 years of
/// nanosecond ticks), where a plain duration cast would overflow.  NaN maps
/// there too; the knobs' owners refuse it with InvalidArgument first.
inline CancelToken::Clock::time_point deadline_after(
    CancelToken::Clock::time_point t0, double seconds) {
  using Clock = CancelToken::Clock;
  const std::chrono::duration<double, Clock::period> ticks =
      std::chrono::duration<double>(seconds);
  // `room` rounded to a double can exceed the exact tick count, but a double
  // strictly below it truncates to fewer ticks than `room`: neither the cast
  // nor the sum below can overflow.
  const double room =
      static_cast<double>((Clock::time_point::max() - t0).count());
  if (!(seconds > 0.0) || ticks.count() >= room) {
    return Clock::time_point::max();
  }
  return t0 + std::chrono::duration_cast<Clock::duration>(ticks);
}

}  // namespace ota
