// Fleet-scale sharded analytics service: N shard replicas of the PR 2/PR 4
// single-process stack — each shard owns its DsosStore, bounded ingest queue,
// cache generation, worker pool, and OnlineScorer — behind one front-end
// dispatcher that routes every sample row and query by the frozen node-hash
// (deploy/shard_router.hpp).  Per-node state never straddles shards, so
// sharded scoring is bit-identical to the single-shard oracle for any shard
// count and pool size (tests/service_shard_test.cpp pins this with
// EXPECT_EQ).
//
// Admission control and load-shedding reuse the PR 4 backpressure policies at
// the service level: each shard queue applies its own Block / DropOldest /
// DropNewest policy, the dispatcher sheds whole batches once the fleet-wide
// queued budget is exhausted, and the query path can bound concurrent
// analyze_job requests (Block stalls callers, anything else sheds).  Every
// offered sample lands in exactly one terminal bucket, so the fleet-wide
// accounting invariant holds even while shards stall, crash, or run slow:
//
//   dispatcher offered == dispatcher shed
//                       + sum over shards (flushed + dropped + duplicate
//                                          + late + malformed)
//
// Fault injection: a ShardFaultInjector freezes (stall), delays (slow), or —
// via crash_shard() — kills a shard mid-stream, exercising exactly the
// degraded modes the harness asserts graceful recovery from.
#pragma once

#include "deploy/service.hpp"
#include "deploy/shard_router.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"
#include "util/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace prodigy::util {
class Counter;
class Gauge;
}  // namespace prodigy::util

namespace prodigy::stream {

/// Per-shard fault hooks, called on each shard's ingestor consumer thread at
/// flush time.  stall() freezes the next flush until release(); set_delay()
/// slows every flush; wait_until_stalled() lets a test sequence faults
/// deterministically (no wall-clock sleeps).
class ShardFaultInjector {
 public:
  explicit ShardFaultInjector(std::size_t shards);

  /// Freezes `shard`'s consumer at its next flush (and keeps it frozen).
  void stall(std::size_t shard);
  /// Unfreezes a stalled shard; its consumer resumes and catches up.
  void release(std::size_t shard);
  /// Unfreezes every stalled shard.  Called by the service on stop():
  /// shutdown outranks injected faults — a frozen consumer can neither drain
  /// nor be joined, and a mid-test failure must not wedge the whole suite.
  void release_all();
  /// Adds a fixed delay to every flush of `shard` (a slow shard, not a dead
  /// one).  Zero disables.
  void set_delay(std::size_t shard, std::chrono::microseconds delay);

  /// Blocks until `shard`'s consumer thread is parked inside a stall.
  void wait_until_stalled(std::size_t shard);
  bool stalled(std::size_t shard) const;

  /// Hook invoked by the shard's sink wrapper (consumer thread): applies the
  /// delay, then parks while the shard is stalled.
  void on_flush(std::size_t shard);

 private:
  struct State {
    bool stalled = false;
    bool parked = false;  // consumer is currently frozen inside on_flush
    std::chrono::microseconds delay{0};
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<State> states_;
};

struct ShardedServiceConfig {
  std::size_t shards = 4;
  /// Applied to every shard's StreamIngestor (queue capacity, backpressure
  /// policy, flush threshold, row width).
  IngestorConfig ingest;
  /// Applied to every shard's OnlineScorer.  `scorer.pool` is ignored — each
  /// shard gets its own pool of `scorer_threads` workers (0 shares the
  /// process-global pool across shards instead).
  OnlineScorerConfig scorer;
  EventBusConfig bus;
  std::size_t scorer_threads = 1;
  /// Fleet-wide admission budget: when the batches queued across all shard
  /// ingest queues reach this bound, the dispatcher sheds the incoming batch
  /// outright (service-level DropNewest) instead of letting one hot shard
  /// stall the fleet.  0 = unlimited (per-shard policies still apply).
  std::size_t max_total_queued_batches = 0;
  /// Query admission: maximum concurrent analyze_job requests.  0 =
  /// unlimited.  Block parks excess callers; any other policy sheds them
  /// (analyze_job returns nullopt).
  std::size_t max_concurrent_queries = 0;
  BackpressurePolicy query_admission = BackpressurePolicy::Block;
  /// Per-shard result-cache capacity (each shard keys by its own store
  /// generation, so re-ingest invalidates exactly that shard's entries).
  std::size_t cache_capacity = 128;
  /// Batch-path preprocessing for the per-shard AnalyticsService queries.
  pipeline::PreprocessOptions preprocess;
};

/// Fleet-wide sample/query accounting.  `per_shard[k]` is shard k's own
/// IngestorStats; `totals` sums them.  The invariant (see file comment)
/// balances offered against shed + the shard terminal buckets.
struct ShardedStats {
  std::uint64_t offered_samples = 0;  // arrived at the dispatcher
  std::uint64_t shed_samples = 0;     // dispatcher admission or dead shard
  std::uint64_t queries = 0;          // admitted analyze_job calls
  std::uint64_t queries_shed = 0;     // rejected by query admission
  IngestorStats totals;
  std::vector<IngestorStats> per_shard;

  bool accounting_balances() const noexcept {
    return offered_samples ==
           shed_samples + totals.flushed_samples + totals.dropped_samples +
               totals.duplicate_samples + totals.late_samples +
               totals.malformed_samples;
  }
};

class ShardedAnalyticsService {
 public:
  /// Owns a copy of the bundle per shard.  `faults` (optional) must outlive
  /// the service.  Consumer threads start immediately.  Explanations are a
  /// single-shard feature for now: sharded verdicts carry scores and flags
  /// only.
  explicit ShardedAnalyticsService(core::ModelBundle bundle,
                                   ShardedServiceConfig config = {},
                                   ShardFaultInjector* faults = nullptr);
  ~ShardedAnalyticsService();

  ShardedAnalyticsService(const ShardedAnalyticsService&) = delete;
  ShardedAnalyticsService& operator=(const ShardedAnalyticsService&) = delete;

  /// Streaming front door (any thread): routes each row to its node's shard
  /// and forwards per-shard sub-batches.  Returns false when anything was
  /// shed or rejected (fleet admission, dead shard, or a shard's DropNewest
  /// queue); rejected rows are fully accounted either way.
  bool offer(const SampleBatch& batch);

  /// Query front door (any thread): fans the job out to every shard holding
  /// any of its nodes and merges the per-shard verdicts in component order —
  /// bit-identical to the single-shard analysis.  Returns nullopt when query
  /// admission sheds the request.  Throws std::out_of_range for a job no
  /// shard knows.
  std::optional<deploy::JobAnalysis> analyze_job(std::int64_t job_id) const;

  /// Stops every shard gracefully (drain queues, flush, join) and drains all
  /// scorers.  Releases any injected stalls first (shutdown outranks faults;
  /// a frozen consumer cannot drain).  Idempotent.
  void stop();
  /// Blocks until every scheduled window has been scored and published.
  void drain();

  /// Fault injection: kills one shard as a crash would — its queued and
  /// pending samples are counted dropped, and the dispatcher sheds
  /// everything routed to it from now on.  A stalled shard is released
  /// first (a frozen consumer cannot be joined).
  void crash_shard(std::size_t shard);
  bool shard_alive(std::size_t shard) const;

  EventBus& bus() noexcept { return bus_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of_node(std::int64_t job_id,
                            std::int64_t component_id) const noexcept {
    return deploy::shard_of(job_id, component_id, shards_.size());
  }

  /// Shard-local views for tests and benchmarks.
  const deploy::DsosStore& shard_store(std::size_t shard) const;
  std::size_t shard_queue_depth(std::size_t shard) const;
  std::uint64_t shard_windows_scored(std::size_t shard) const;

  ShardedStats stats() const;
  std::uint64_t windows_scored() const;
  std::uint64_t score_errors() const;

 private:
  /// RowSink wrapper threading the fault hook in front of the scorer.
  class ShardSink;
  struct Shard;

  struct QueryGate {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };

  ShardedServiceConfig config_;
  ShardFaultInjector* faults_;
  EventBus bus_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> offered_samples_{0};
  std::atomic<std::uint64_t> shed_samples_{0};
  mutable QueryGate query_gate_;

  util::Counter* shed_counter_ = nullptr;
  util::Counter* query_shed_counter_ = nullptr;
};

}  // namespace prodigy::stream
