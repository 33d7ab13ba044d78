#include "par/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ota::par {

namespace {

// Set for the lifetime of each worker thread; lets parallel_for detect a
// nested call from inside its own pool and degrade to an inline run instead
// of deadlocking on a queue no free worker can drain.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int env_threads() {
  const char* env = std::getenv("OTA_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  int v = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > 1024) {
    throw InvalidArgument(
        "OTA_THREADS: expected an integer in [1, 1024], got '" +
        std::string(env) + "'");
  }
  return v;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const int env = env_threads();
  return env > 0 ? env : hardware_threads();
}

ThreadPool::ThreadPool(int threads) {
  if (threads < 2) return;  // inline pool
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // inline pool
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  enqueue([packaged] { (*packaged)(); });
  return future;
}

void ThreadPool::parallel_for(
    size_t n, const std::function<void(size_t, size_t)>& chunk_fn) {
  parallel_for_chunked(
      n, [&chunk_fn](size_t begin, size_t end, size_t) { chunk_fn(begin, end); });
}

void ThreadPool::parallel_for_chunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& chunk_fn) {
  parallel_for_chunked(n, workers_.empty() ? 1 : workers_.size(), chunk_fn);
}

void ThreadPool::parallel_for_chunked(
    size_t n, size_t max_chunks,
    const std::function<void(size_t, size_t, size_t)>& chunk_fn) {
  if (n == 0) return;
  // Items (not chunks): the item count is a pure function of the workload,
  // so the merged counter is thread-count-deterministic; chunk counts are not.
  STAT_REGION("par.pool.dispatch");
  STAT_COUNTER_ADD("par.pool.items", n);
  if (workers_.empty() || n == 1 || max_chunks <= 1 || on_worker_thread()) {
    chunk_fn(0, n, 0);
    return;
  }

  const size_t n_chunks = std::min({n, max_chunks, workers_.size()});
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    std::vector<std::exception_ptr> errors;
  } barrier;
  barrier.remaining = n_chunks;
  barrier.errors.resize(n_chunks);

  for (size_t c = 0; c < n_chunks; ++c) {
    const size_t begin = n * c / n_chunks;
    const size_t end = n * (c + 1) / n_chunks;
    enqueue([&barrier, &chunk_fn, begin, end, c] {
      try {
        chunk_fn(begin, end, c);
      } catch (...) {
        barrier.errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(barrier.mu);
      if (--barrier.remaining == 0) barrier.cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(barrier.mu);
  barrier.cv.wait(lock, [&barrier] { return barrier.remaining == 0; });
  for (const std::exception_ptr& e : barrier.errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool& global_pool() {
  // Function-local static: constructed on first use, joined cleanly during
  // static destruction at exit (no leaked threads for the sanitizer gates).
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

}  // namespace ota::par
