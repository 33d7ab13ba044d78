// Fixed-size thread pool and data-parallel facades.
//
// The execution subsystem behind every embarrassingly-parallel hot path in
// the repository: dataset generation (core/dataset.cpp), campaign evaluation
// (core/metrics.cpp), and the baseline optimizers' population evaluation
// (baselines/).  The design contract those call sites rely on:
//
//  * Work is partitioned statically, results land in caller-indexed slots,
//    and all randomness stays on the calling thread (or in per-item counted
//    streams, see common/rng.hpp) — so results are bit-identical for any
//    thread count, including 1.
//  * Workers share only immutable state; anything mutable (a Topology, a
//    SizingCopilot, an Rng) is copied per worker or per item.
//
// Width policy: this module is the only one that knows a worker count.  Every
// function that runs a data-parallel loop takes a `ThreadPool&` as its last
// parameter, defaulting to global_pool(), whose width is OTA_THREADS if set,
// else std::thread::hardware_concurrency().  Callers that need a specific
// width (determinism sweeps in tests, benches) construct a ThreadPool(n) and
// pass it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ota::par {

/// std::thread::hardware_concurrency(), never less than 1.
int hardware_threads();

/// Parsed OTA_THREADS environment variable; 0 when unset or empty.  Any
/// other value that is not a base-10 integer in [1, 1024] throws
/// InvalidArgument naming the variable and the value.
int env_threads();

/// Effective thread count: `requested` if positive, else OTA_THREADS if set,
/// else hardware_threads().
int resolve_threads(int requested = 0);

/// A fixed-size pool of worker threads with a shared FIFO task queue.
///
/// `ThreadPool(n)` spawns n workers for n >= 2.  With n <= 1 no threads are
/// spawned and every operation runs inline on the calling thread, so a pool
/// is always safe to construct and use unconditionally.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.  Inline pools run it before returning.  The future
  /// carries any exception the task throws.
  std::future<void> submit(std::function<void()> task);

  /// Runs `chunk_fn(begin, end)` over a static partition of [0, n) and
  /// blocks until the whole range is covered.  At most size() chunks are in
  /// flight; each index is visited exactly once.  The first chunk exception
  /// (lowest chunk index) is rethrown on the calling thread after all chunks
  /// finish.  Calls from inside one of this pool's workers run inline
  /// (single chunk), which makes nested submission deadlock-free.
  void parallel_for(size_t n,
                    const std::function<void(size_t, size_t)>& chunk_fn);

  /// As parallel_for, but the callback also receives its 0-based chunk index:
  /// `chunk_fn(begin, end, chunk)`.  At most max(1, size()) distinct chunk
  /// indices exist and no index runs concurrently with itself, so call sites
  /// can hold per-chunk mutable scratch (model replicas, accumulators)
  /// indexed by it.  Inline, nested, and single-item runs use chunk 0.
  void parallel_for_chunked(
      size_t n, const std::function<void(size_t, size_t, size_t)>& chunk_fn);

  /// As above, but never partitions [0, n) into more than `max_chunks`
  /// pieces, regardless of the pool size.  Lets a caller with k units of
  /// per-chunk scratch (k model replicas, say) run on a shared pool that is
  /// wider than k: chunk indices stay < max(1, max_chunks).
  void parallel_for_chunked(
      size_t n, size_t max_chunks,
      const std::function<void(size_t, size_t, size_t)>& chunk_fn);

  /// Runs `fn(i)` once for every i in [0, n), handing indices out one at a
  /// time, in ascending order, to whichever chunk of a parallel_for asks
  /// next.  For a few coarse items of uneven or core-dependent cost: a
  /// worker on a slower core takes fewer items instead of holding up the
  /// whole call with a fixed share.  Which worker runs an item depends on
  /// timing, so `fn` must write only to item-indexed slots and must not
  /// throw (catch per item and keep the error in its slot).
  template <typename Fn>
  void parallel_for_each(size_t n, const Fn& fn) {
    std::atomic<size_t> next{0};
    parallel_for(n, [&](size_t, size_t) {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }

  /// parallel_for that maps `fn(item, index)` over `in`, writing results in
  /// order into the returned vector.
  template <typename Out, typename In, typename Fn>
  std::vector<Out> parallel_map(const std::vector<In>& in, Fn fn) {
    std::vector<Out> out(in.size());
    parallel_for(in.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = fn(in[i], i);
    });
    return out;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();
  bool on_worker_thread() const;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide persistent worker pool, constructed lazily on first use
/// (size = resolve_threads(0): OTA_THREADS if set, else hardware concurrency;
/// a malformed OTA_THREADS throws InvalidArgument here) and kept alive until
/// process exit.  The default pool argument of every data-parallel function
/// — dataset generation, runtime statistics, training shards, decode batches,
/// AC sweeps, baseline populations — so workers survive across calls instead
/// of being spawned per call, and concurrent subsystems share one set of OS
/// threads instead of oversubscribing the host.  Nested parallel_for from one
/// of its own workers degrades to an inline run (see parallel_for), so
/// layered use is deadlock-free.  With OTA_THREADS=1 (or one hardware
/// thread) it is an inline pool: size() == 0.
ThreadPool& global_pool();

}  // namespace ota::par
