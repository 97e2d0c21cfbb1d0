#include "util/thread_pool.hpp"

#include "util/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace prodigy::util {

namespace {
// Which pool (if any) the current thread belongs to.  Lets parallel_for
// detect re-entry from a worker of the same pool and run inline instead of
// waiting on helpers queued behind blocked workers.
thread_local const ThreadPool* tl_worker_pool = nullptr;

// Polls before the caller of parallel_for sleeps on its helpers' last
// chunks.  Those usually end within a few microseconds of the caller's own;
// a longer spin would hold a CPU that a helper still needs when the pool
// fills every core.
constexpr int kSpinPolls = 256;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// One parallel_for call, shared by the caller and its helper tasks.  It is
// heap-owned by every party, so a helper a worker picks up only after the
// caller has returned still finds a valid (exhausted) cursor and leaves
// without touching `body`.
struct ForkJoin {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 0;
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};      // next unclaimed chunk
  std::atomic<std::size_t> finished{0};  // chunks run to completion
  std::mutex mutex;
  std::condition_variable all_finished;
  std::exception_ptr error;  // first chunk failure; written under mutex

  bool done() const noexcept {
    return finished.load(std::memory_order_acquire) == chunks;
  }

  // Claims and runs chunks until the cursor is exhausted.
  void run() {
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      const std::size_t lo = begin + chunk * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard lock(mutex);
        all_finished.notify_one();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : tasks_submitted_(&MetricsRegistry::global().counter(
          "prodigy_threadpool_tasks_submitted_total")),
      tasks_completed_(&MetricsRegistry::global().counter(
          "prodigy_threadpool_tasks_completed_total")),
      queue_high_water_(&MetricsRegistry::global().gauge(
          "prodigy_threadpool_queue_depth_high_water")) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    tasks_completed_->increment();
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return tl_worker_pool == this;
}

void ThreadPool::post(const std::function<void()>& task, std::size_t copies) {
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < copies; ++i) queue_.push(task);
    tasks_submitted_->increment(copies);
    queue_high_water_->update_max(static_cast<double>(queue_.size()));
  }
  // Several copies wake the workers with one broadcast: a notify_one per
  // sleeping worker costs one wake-up call each, on the caller's path.
  if (copies == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t workers = pool.size();
  // Re-entry from one of this pool's own workers must run inline: waiting
  // on helpers here could wedge the process once every worker sits in the
  // same wait while the helpers queue behind them.
  if (workers <= 1 || count <= grain || pool.on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Aim for a few chunks per worker so uneven iterations balance out.
  const std::size_t target = std::min(count, workers * 4);
  const auto state = std::make_shared<ForkJoin>();
  state->begin = begin;
  state->end = end;
  state->chunk_size = std::max(grain, (count + target - 1) / target);
  state->chunks = (count + state->chunk_size - 1) / state->chunk_size;
  state->body = &body;

  // The caller takes chunks too, so one helper fewer than chunks suffices.
  // If queueing fails part-way, the caller runs the range without the
  // missing helpers; it must not leave while a queued one can still claim
  // a chunk of `body`.
  try {
    pool.post([state] { state->run(); }, std::min(workers, state->chunks - 1));
  } catch (...) {
  }
  state->run();

  // Every chunk is claimed now; wait for the ones helpers are still running.
  for (int poll = 0; poll < kSpinPolls && !state->done(); ++poll) cpu_relax();
  if (!state->done()) {
    std::unique_lock lock(state->mutex);
    state->all_finished.wait(lock, [&] { return state->done(); });
  }
  // done()'s acquire orders every chunk's write of `error` before this read.
  if (state->error) std::rethrow_exception(state->error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}

}  // namespace prodigy::util
