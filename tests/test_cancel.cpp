// CancelToken: the one cancellation type every layer polls.
//
// The scheduler and server suites exercise tokens end to end; this suite
// pins the token's own contract: a default token never fires, copies share
// one flag, the deadline fires at now >= deadline, reason() tells a cancel
// from a deadline, check() names its boundary, and a cancel made on one
// thread is seen by a reader polling on another (run under TSan by name).
// It also pins deadline_after's saturation, the fix for relative timeouts
// so large that a plain duration cast overflowed into the past.
#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>

namespace ota {
namespace {

using Clock = CancelToken::Clock;
using Reason = CancelToken::Reason;
using std::chrono::nanoseconds;

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  const CancelToken token;
  EXPECT_FALSE(token.cancellable());
  token.cancel();  // no state to set
  EXPECT_EQ(token.reason(Clock::now()), Reason::kLive);
  EXPECT_EQ(token.reason(Clock::time_point::max()), Reason::kLive);
  EXPECT_NO_THROW(token.check("nowhere"));
}

TEST(CancelTokenTest, CopiesShareOneFlag) {
  const CancelToken original(Clock::time_point::max());
  const CancelToken copy = original;
  const CancelToken other(Clock::time_point::max());
  EXPECT_TRUE(original.cancellable());
  EXPECT_EQ(original.reason(Clock::now()), Reason::kLive);

  copy.cancel();
  EXPECT_EQ(original.reason(Clock::now()), Reason::kCancelled);
  EXPECT_EQ(copy.reason(Clock::now()), Reason::kCancelled);
  EXPECT_EQ(other.reason(Clock::now()), Reason::kLive);  // its own flag
}

TEST(CancelTokenTest, DeadlineFiresAtNowAtOrPastDeadline) {
  const auto deadline = Clock::now() + std::chrono::hours(1);
  const CancelToken token(deadline);
  EXPECT_EQ(token.reason(deadline - nanoseconds(1)), Reason::kLive);
  EXPECT_EQ(token.reason(deadline), Reason::kDeadlineExceeded);
  EXPECT_EQ(token.reason(deadline + nanoseconds(1)), Reason::kDeadlineExceeded);
}

TEST(CancelTokenTest, ReasonTellsCancelFromDeadline) {
  const auto deadline = Clock::now() + std::chrono::hours(1);
  const auto later = deadline + std::chrono::seconds(1);
  const CancelToken token(deadline);
  EXPECT_EQ(token.reason(later), Reason::kDeadlineExceeded);
  token.cancel();
  // A cancel outranks a deadline that has also passed.
  EXPECT_EQ(token.reason(later), Reason::kCancelled);
  EXPECT_EQ(token.reason(deadline - nanoseconds(1)), Reason::kCancelled);
}

TEST(CancelTokenTest, CheckThrowsCancelledNamingWhere) {
  const auto message_of = [](const CancelToken& token) {
    try {
      token.check("Stage II boundary");
    } catch (const Cancelled& e) {
      return std::string(e.what());
    }
    return std::string("(no throw)");
  };
  const CancelToken live(Clock::time_point::max());
  EXPECT_NO_THROW(live.check("Stage II boundary"));

  const CancelToken cancelled(Clock::time_point::max());
  cancelled.cancel();
  EXPECT_EQ(message_of(cancelled), "Stage II boundary: cancelled");

  const CancelToken expired(Clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(message_of(expired), "Stage II boundary: deadline exceeded");
}

TEST(CancelTokenTest, PollerSeesCancelFromAnotherThread) {
  const CancelToken token(Clock::time_point::max());
  std::thread canceller([copy = token] { copy.cancel(); });
  while (token.reason(Clock::now()) == Reason::kLive) {
    std::this_thread::yield();
  }
  canceller.join();
  EXPECT_EQ(token.reason(Clock::now()), Reason::kCancelled);
}

TEST(CancelTokenTest, DeadlineAfterSaturatesToNoDeadline) {
  const auto t0 = Clock::now();
  const auto none = Clock::time_point::max();
  EXPECT_EQ(deadline_after(t0, 1.5), t0 + std::chrono::milliseconds(1500));
  // Non-positive is the knobs' "none".
  EXPECT_EQ(deadline_after(t0, 0.0), none);
  EXPECT_EQ(deadline_after(t0, -3.0), none);
  // Past the clock's range (~9.2e9 s of nanosecond ticks) a plain duration
  // cast overflows and lands in the past; these must mean "no deadline".
  for (const double seconds : {9.3e9, 1e10, 1e12, 1e300,
                               std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(deadline_after(t0, seconds), none) << seconds;
    EXPECT_EQ(CancelToken(deadline_after(t0, seconds)).reason(Clock::now()),
              Reason::kLive)
        << seconds;
  }
  // Just inside the range the deadline is finite and never before t0.
  const auto edge = deadline_after(t0, 9.0e9);
  EXPECT_LT(edge, none);
  EXPECT_GT(edge, t0);
}

}  // namespace
}  // namespace ota
