#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace prodigy::util {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&value] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ParallelForTest, RethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 57) throw std::logic_error("bad index");
                   }),
      std::logic_error);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // sequential execution preserves order
}

TEST(ParallelForTest, GlobalPoolOverloadWorks) {
  std::atomic<int> count{0};
  parallel_for(0, 64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelForTest, LargeGrainStillCoversRange) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 10, [&](std::size_t) { ++count; }, 100);
  EXPECT_EQ(count.load(), 10);
}

// Regression: a parallel_for issued from inside a pool task used to block in
// future.get() while its chunks sat behind other blocked workers, wedging
// the process.  Nested calls must now run inline and complete.  This test
// binary carries a ctest TIMEOUT so a reintroduced deadlock fails fast.
TEST(ParallelForTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  // Outer width > worker count so every worker is busy with an outer chunk.
  parallel_for(pool, 0, 8, [&](std::size_t) {
    parallel_for(pool, 0, 64, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 64);
}

TEST(ParallelForTest, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 6, [&](std::size_t) {
    parallel_for(pool, 0, 4, [&](std::size_t) {
      parallel_for(pool, 0, 16, [&](std::size_t) { ++count; });
    });
  });
  EXPECT_EQ(count.load(), 6 * 4 * 16);
}

TEST(ParallelForTest, NestedGlobalPoolOverloadCompletes) {
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 32, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 4 * 32);
}

// Chunks are sized ceil(count / (4 * workers)) (at least the grain), so
// these counts land just below, on and just above chunk boundaries for each
// pool size, including ranges that fit in one chunk plus one index.
TEST(ParallelForTest, EveryIndexOnceAcrossPoolSizesAndChunkBoundaries) {
  for (const std::size_t threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {2, 3, 7, 8, 9, 15, 16, 17, 27, 28, 29, 63,
                                    64, 65, 255, 256, 257, 1001}) {
      for (const std::size_t grain : {1, 3, 8}) {
        const std::size_t begin = 5;
        std::vector<std::atomic<int>> hits(count);
        parallel_for(pool, begin, begin + count,
                     [&](std::size_t i) { ++hits[i - begin]; }, grain);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "threads " << threads << " count "
                                       << count << " grain " << grain
                                       << " index " << i;
        }
      }
    }
  }
}

// Runs 64 slow indices on a 4-worker pool with `throws` deciding which ones
// throw, and checks the exception arrives only after every started index
// has finished (a body that returned early would leave started > finished).
void expect_rethrow_after_claimed_chunks(
    const std::function<bool(ThreadPool&, std::size_t)>& throws) {
  ThreadPool pool(4);
  std::atomic<int> started{0}, finished{0};
  bool caught = false;
  try {
    parallel_for(pool, 0, 64, [&](std::size_t i) {
      ++started;
      struct Finish {
        std::atomic<int>& finished;
        ~Finish() { ++finished; }
      } finish{finished};
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      if (throws(pool, i)) throw std::runtime_error("chunk failed");
    });
  } catch (const std::runtime_error&) {
    caught = true;
    EXPECT_EQ(started.load(), finished.load());
  }
  EXPECT_TRUE(caught);
}

// Holds a caller-run index until a helper has claimed a chunk (5 s at most),
// so the caller cannot finish the whole range alone.
void wait_for_helper(const std::atomic<bool>& helper_ran) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!helper_ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ParallelForTest, CallerChunkExceptionWaitsForHelpers) {
  std::atomic<bool> helper_ran{false};
  expect_rethrow_after_claimed_chunks([&](ThreadPool& pool, std::size_t) {
    if (pool.on_worker_thread()) {
      helper_ran = true;
      return false;
    }
    wait_for_helper(helper_ran);
    return true;
  });
  EXPECT_TRUE(helper_ran.load());
}

TEST(ParallelForTest, HelperChunkExceptionReachesCaller) {
  std::atomic<bool> helper_ran{false};
  expect_rethrow_after_claimed_chunks([&](ThreadPool& pool, std::size_t) {
    if (pool.on_worker_thread()) {
      helper_ran = true;
      return true;
    }
    wait_for_helper(helper_ran);
    return false;
  });
  EXPECT_TRUE(helper_ran.load());
}

TEST(ParallelForTest, ConcurrentCallersFromNonWorkerThreads) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(pool, 0, kCount, [&](std::size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    for (const auto& v : h) ASSERT_EQ(v.load(), 20);
  }
}

// The caller claims chunks from the same cursor as its helpers, so a range
// completes even when no worker is free to run a helper.  With every worker
// parked, a caller that only waited on queued chunk tasks would hang (and
// this binary's TIMEOUT would fail the test).
TEST(ParallelForTest, CompletesWhileEveryWorkerIsParked) {
  ThreadPool pool(3);
  std::latch parked(3);
  std::latch release(1);
  std::vector<std::future<void>> blockers;
  for (int w = 0; w < 3; ++w) {
    blockers.push_back(pool.submit([&] {
      parked.count_down();
      release.wait();
    }));
  }
  parked.wait();

  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  release.count_down();
  for (auto& b : blockers) b.get();
  // The stale helpers drain harmlessly and the pool keeps working.
  std::atomic<int> count{0};
  parallel_for(pool, 0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker_thread());  // caller is not a worker
  std::atomic<bool> inside{false}, inside_other{false};
  pool.submit([&] {
        inside = pool.on_worker_thread();
        inside_other = other.on_worker_thread();
      })
      .get();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(inside_other.load());  // flag is per-pool, not per-thread
}

}  // namespace
}  // namespace prodigy::util
