// Thread-pool unit tests: task completion, exception propagation out of
// parallel_for, nested-submission safety, and the zero-item / single-thread
// edge cases the par layer's determinism contract leans on.
#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace ota::par {
namespace {

TEST(ParTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParTest, SubmitFutureCarriesException) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  const size_t n = 10007;
  std::vector<int> hits(n, 0);  // chunks are disjoint: plain ints suffice
  pool.parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ParTest, ParallelForZeroItemsIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParTest, InlinePoolRunsOnCallingThread) {
  // threads <= 1 spawns no workers; everything runs inline.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0);
  std::thread::id seen;
  pool.parallel_for(64, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 64u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, std::this_thread::get_id());
  pool.submit([&seen] { seen = std::this_thread::get_id(); }).get();
  EXPECT_EQ(seen, std::this_thread::get_id());
}

TEST(ParTest, ParallelForPropagatesChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            if (i == 57) throw std::runtime_error("chunk 57");
                          }
                        }),
      std::runtime_error);

  // The pool must stay fully usable after a failed parallel_for.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](size_t begin, size_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // A nested call from a worker degrades to a single inline chunk
      // instead of deadlocking on the shared queue.
      pool.parallel_for(10, [&](size_t b, size_t e) {
        inner_total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParTest, ParallelMapPreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> in(1000);
  std::iota(in.begin(), in.end(), 0);
  const std::vector<int> out =
      pool.parallel_map<int>(in, [](int v, size_t) { return 3 * v + 1; });
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i], 3 * static_cast<int>(i) + 1);
  }
}

TEST(ParTest, EnvThreadsParsesOtaThreads) {
  const char* saved = std::getenv("OTA_THREADS");
  const std::string restore = saved ? saved : "";

  ::setenv("OTA_THREADS", "6", 1);
  EXPECT_EQ(env_threads(), 6);
  EXPECT_EQ(resolve_threads(), 6);
  EXPECT_EQ(resolve_threads(3), 3);  // explicit request wins over env

  // Set but malformed: parse-or-throw, never a silent fall back to auto.
  for (const char* bad : {"not-a-number", "0", "8x", "-3", "2000"}) {
    ::setenv("OTA_THREADS", bad, 1);
    EXPECT_THROW((void)env_threads(), InvalidArgument) << bad;
  }

  ::unsetenv("OTA_THREADS");
  EXPECT_EQ(env_threads(), 0);
  EXPECT_GE(resolve_threads(), 1);  // falls back to hardware concurrency

  if (saved) ::setenv("OTA_THREADS", restore.c_str(), 1);
}

TEST(ParTest, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

}  // namespace
}  // namespace ota::par
