// Fixed-size thread pool with a blocking task queue and a chunked
// parallel_for built on top.  All heavy loops in the library (feature
// extraction, GEMM, distance matrices, cross-validation folds) run here so
// the degree of parallelism is controlled in one place.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace prodigy::util {

class Counter;
class Gauge;

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.  Nested
  /// parallel constructs use this to execute inline instead of blocking on
  /// work that can only be drained by already-blocked workers.
  bool on_worker_thread() const noexcept;

  /// Enqueue an arbitrary task; the future reports completion/exceptions.
  /// WARNING: blocking on the future from inside a pool task can deadlock
  /// once every worker is blocked; prefer parallel_for, which runs nested
  /// ranges inline.
  template <typename Fn>
  std::future<void> submit(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<Fn>(fn));
    std::future<void> result = task->get_future();
    post([task] { (*task)(); }, 1);
    return result;
  }

  /// Process-wide shared pool.  Lazily constructed with the default size.
  static ThreadPool& global();

 private:
  friend void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t)>& body,
                           std::size_t grain);

  /// Queues `copies` copies of `task` under one lock, then wakes one worker
  /// for a single copy or every idle worker for several.
  void post(const std::function<void()>& task, std::size_t copies);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Registry-owned instrumentation; bound in the constructor so the global
  // registry outlives every pool (and the hot path is one relaxed atomic).
  Counter* tasks_submitted_ = nullptr;
  Counter* tasks_completed_ = nullptr;
  Gauge* queue_high_water_ = nullptr;
};

/// Runs body(i) for i in [begin, end) in contiguous chunks, which the
/// calling thread and up to pool.size() helper tasks claim from one shared
/// cursor.  Blocks until every claimed chunk has finished, then rethrows
/// the first exception a chunk raised.  The caller works through the range
/// itself, so the call completes even when no worker ever picks up a
/// helper.  Executes inline when the range is small, the pool has one
/// thread, or the caller is already one of the pool's workers (nested
/// parallel_for), so nesting never deadlocks.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Convenience overload using the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace prodigy::util
