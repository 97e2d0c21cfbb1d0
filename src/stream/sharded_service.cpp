#include "stream/sharded_service.hpp"

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

namespace prodigy::stream {

// ---------------------------------------------------------------------------
// ShardFaultInjector

ShardFaultInjector::ShardFaultInjector(std::size_t shards) : states_(shards) {}

void ShardFaultInjector::stall(std::size_t shard) {
  std::lock_guard lock(mutex_);
  states_.at(shard).stalled = true;
}

void ShardFaultInjector::release(std::size_t shard) {
  {
    std::lock_guard lock(mutex_);
    states_.at(shard).stalled = false;
  }
  cv_.notify_all();
}

void ShardFaultInjector::release_all() {
  {
    std::lock_guard lock(mutex_);
    for (State& state : states_) state.stalled = false;
  }
  cv_.notify_all();
}

void ShardFaultInjector::set_delay(std::size_t shard,
                                   std::chrono::microseconds delay) {
  std::lock_guard lock(mutex_);
  states_.at(shard).delay = delay;
}

bool ShardFaultInjector::stalled(std::size_t shard) const {
  std::lock_guard lock(mutex_);
  return states_.at(shard).stalled;
}

void ShardFaultInjector::wait_until_stalled(std::size_t shard) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return states_.at(shard).parked; });
}

void ShardFaultInjector::on_flush(std::size_t shard) {
  std::chrono::microseconds delay{0};
  {
    std::lock_guard lock(mutex_);
    delay = states_.at(shard).delay;
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);

  std::unique_lock lock(mutex_);
  State& state = states_.at(shard);
  if (!state.stalled) return;
  state.parked = true;
  cv_.notify_all();  // wake wait_until_stalled
  cv_.wait(lock, [&] { return !state.stalled; });
  state.parked = false;
}

// ---------------------------------------------------------------------------
// ShardedAnalyticsService

/// Threads the fault hook in front of the shard's scorer on the ingestor
/// consumer thread: a stalled shard freezes here, with its queue intact.
class ShardedAnalyticsService::ShardSink : public RowSink {
 public:
  ShardSink(std::size_t shard, ShardFaultInjector* faults, RowSink* inner)
      : shard_(shard), faults_(faults), inner_(inner) {}

  void on_rows(std::int64_t job_id, std::int64_t component_id,
               const std::string& app,
               std::span<const std::int64_t> timestamps,
               const tensor::Matrix& rows) override {
    if (faults_ != nullptr) faults_->on_flush(shard_);
    if (inner_ != nullptr) {
      inner_->on_rows(job_id, component_id, app, timestamps, rows);
    }
  }

 private:
  const std::size_t shard_;
  ShardFaultInjector* faults_;
  RowSink* inner_;
};

/// One shard replica.  Declaration order is destruction-critical: the
/// ingestor dies first (stops the producer into the scorer), the scorer
/// drains while its pool still exists, the query service and pool go next,
/// and the store outlives them all.
struct ShardedAnalyticsService::Shard {
  deploy::DsosStore store;
  std::unique_ptr<util::ThreadPool> pool;  // null -> global pool
  std::unique_ptr<deploy::AnalyticsService> service;
  std::unique_ptr<OnlineScorer> scorer;
  std::unique_ptr<ShardSink> sink;
  std::unique_ptr<StreamIngestor> ingestor;
  std::atomic<bool> alive{true};

  // Registry-owned per-shard instrumentation, resolved once.
  util::Gauge* queue_depth_gauge = nullptr;
  util::Counter* shed_counter = nullptr;
};

ShardedAnalyticsService::ShardedAnalyticsService(core::ModelBundle bundle,
                                                 ShardedServiceConfig config,
                                                 ShardFaultInjector* faults)
    : config_(config), faults_(faults), bus_(config.bus) {
  if (config_.shards == 0) config_.shards = 1;
  auto& registry = util::MetricsRegistry::global();
  shed_counter_ = &registry.counter("prodigy_sharded_shed_samples_total");
  query_shed_counter_ = &registry.counter("prodigy_sharded_queries_shed_total");

  shards_.reserve(config_.shards);
  for (std::size_t k = 0; k < config_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    if (config_.scorer_threads > 0) {
      shard->pool = std::make_unique<util::ThreadPool>(config_.scorer_threads);
    }
    // Queries run against the shard-local store with the shard's own result
    // cache; the cache key already includes the shard store's generation, so
    // shard-local re-ingest invalidates exactly that shard's entries.
    shard->service = std::make_unique<deploy::AnalyticsService>(
        shard->store, bundle, config_.preprocess, /*explain=*/false,
        comte::ComteConfig{}, config_.cache_capacity);
    if (shard->pool) shard->service->set_thread_pool(shard->pool.get());

    OnlineScorerConfig scorer_config = config_.scorer;
    scorer_config.pool = shard->pool.get();  // null -> global
    scorer_config.metrics_scope = "shard" + std::to_string(k);
    shard->scorer = std::make_unique<OnlineScorer>(bundle, bus_, scorer_config);
    shard->sink =
        std::make_unique<ShardSink>(k, faults_, shard->scorer.get());
    shard->ingestor = std::make_unique<StreamIngestor>(
        shard->store, config_.ingest, shard->sink.get());

    const std::string prefix = "prodigy_shard" + std::to_string(k);
    shard->queue_depth_gauge = &registry.gauge(prefix + "_queue_depth");
    shard->shed_counter = &registry.counter(prefix + "_shed_samples_total");
    shards_.push_back(std::move(shard));
  }
}

ShardedAnalyticsService::~ShardedAnalyticsService() { stop(); }

bool ShardedAnalyticsService::offer(const SampleBatch& batch) {
  const std::uint64_t samples = batch.sample_count();
  offered_samples_.fetch_add(samples, std::memory_order_relaxed);

  // Fleet-wide admission: one hot shard must not wedge the dispatcher, so
  // once the total queued budget is gone the whole batch is shed up front
  // (service-level DropNewest on top of the per-shard policies).
  if (config_.max_total_queued_batches > 0) {
    std::size_t queued = 0;
    for (const auto& shard : shards_) queued += shard->ingestor->queue_depth();
    if (queued >= config_.max_total_queued_batches) {
      shed_samples_.fetch_add(samples, std::memory_order_relaxed);
      shed_counter_->increment(samples);
      return false;
    }
  }

  // Route rows to their owning shards.  Sub-batches inherit the sequence
  // number for gap diagnostics; rows-within-node order is preserved.
  std::vector<SampleBatch> routed(shards_.size());
  for (const auto& row : batch.rows) {
    routed[deploy::shard_of(row.job_id, row.component_id, shards_.size())]
        .rows.push_back(row);
  }

  bool accepted = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (routed[k].rows.empty()) continue;
    routed[k].sequence = batch.sequence;
    Shard& shard = *shards_[k];
    if (!shard.alive.load(std::memory_order_acquire)) {
      // Dead shard: shed at the dispatcher (the crashed ingestor is joined;
      // nothing downstream will ever account these rows).
      const auto lost = static_cast<std::uint64_t>(routed[k].rows.size());
      shed_samples_.fetch_add(lost, std::memory_order_relaxed);
      shed_counter_->increment(lost);
      shard.shed_counter->increment(lost);
      accepted = false;
      continue;
    }
    if (!shard.ingestor->offer(std::move(routed[k]))) accepted = false;
    shard.queue_depth_gauge->set(
        static_cast<double>(shard.ingestor->queue_depth()));
  }
  return accepted;
}

std::optional<deploy::JobAnalysis> ShardedAnalyticsService::analyze_job(
    std::int64_t job_id) const {
  // Query admission gate (service-level reuse of the PR 4 policies: Block
  // parks the caller, anything else sheds).
  if (config_.max_concurrent_queries > 0) {
    std::unique_lock lock(query_gate_.mutex);
    if (query_gate_.in_flight >= config_.max_concurrent_queries) {
      if (config_.query_admission == BackpressurePolicy::Block) {
        query_gate_.cv.wait(lock, [&] {
          return query_gate_.in_flight < config_.max_concurrent_queries;
        });
      } else {
        ++query_gate_.shed;
        query_shed_counter_->increment();
        return std::nullopt;
      }
    }
    ++query_gate_.in_flight;
    ++query_gate_.admitted;
  } else {
    std::lock_guard lock(query_gate_.mutex);
    ++query_gate_.admitted;
  }

  util::Timer timer;
  deploy::JobAnalysis merged;
  merged.job_id = job_id;
  std::vector<deploy::NodeVerdict> gathered;
  bool found = false;
  bool all_cached = true;
  try {
    // Fan out to every shard holding a slice of the job and merge verdicts
    // in component order — the exact order the single-shard store iterates,
    // so the merged analysis is bit-identical to the unsharded one.
    for (const auto& shard : shards_) {
      if (!shard->store.has_job(job_id)) continue;
      deploy::JobAnalysis part = shard->service->analyze_job(job_id);
      found = true;
      merged.app = part.app;
      merged.store_generation =
          std::max(merged.store_generation, part.store_generation);
      all_cached = all_cached && part.from_cache;
      gathered.insert(gathered.end(),
                      std::make_move_iterator(part.nodes.begin()),
                      std::make_move_iterator(part.nodes.end()));
    }
  } catch (...) {
    if (config_.max_concurrent_queries > 0) {
      {
        std::lock_guard lock(query_gate_.mutex);
        --query_gate_.in_flight;
      }
      query_gate_.cv.notify_one();
    }
    throw;
  }
  if (config_.max_concurrent_queries > 0) {
    {
      std::lock_guard lock(query_gate_.mutex);
      --query_gate_.in_flight;
    }
    query_gate_.cv.notify_one();
  }
  if (!found) {
    throw std::out_of_range("ShardedAnalyticsService: unknown job " +
                            std::to_string(job_id));
  }
  // Sort a permutation, not the verdicts: swapping NodeVerdicts (their
  // optional<Explanation>) inside std::sort draws false-positive
  // -Wmaybe-uninitialized warnings from gcc 12 under -fsanitize=thread.
  std::vector<std::size_t> order(gathered.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return gathered[a].component_id < gathered[b].component_id;
  });
  merged.nodes.reserve(order.size());
  for (const std::size_t i : order) {
    merged.nodes.push_back(std::move(gathered[i]));
  }
  merged.from_cache = all_cached;
  merged.seconds = timer.elapsed_seconds();
  util::MetricsRegistry::global()
      .histogram("prodigy_sharded_query_seconds")
      .observe(merged.seconds);
  return merged;
}

void ShardedAnalyticsService::stop() {
  // Shutdown outranks injected faults: a consumer frozen inside the stall
  // hook can neither drain its queue nor be joined.
  if (faults_ != nullptr) faults_->release_all();
  for (auto& shard : shards_) {
    if (shard->alive.load(std::memory_order_acquire)) shard->ingestor->stop();
  }
  drain();
}

void ShardedAnalyticsService::drain() {
  for (auto& shard : shards_) shard->scorer->drain();
}

void ShardedAnalyticsService::crash_shard(std::size_t shard_index) {
  Shard& shard = *shards_.at(shard_index);
  if (!shard.alive.exchange(false, std::memory_order_acq_rel)) return;
  // Mark the ingestor dying BEFORE releasing any stall: a consumer frozen
  // inside the fault hook then observes the abort the moment it finishes the
  // interrupted flush, so it discards the backlog instead of racing crash
  // delivery to drain it (abort() below performs the join).
  shard.ingestor->request_abort();
  if (faults_ != nullptr) faults_->release(shard_index);
  shard.ingestor->abort();
  shard.queue_depth_gauge->set(0.0);
  util::log_warn("ShardedAnalyticsService: shard ", shard_index,
                 " crashed; dispatcher now sheds its traffic");
}

bool ShardedAnalyticsService::shard_alive(std::size_t shard) const {
  return shards_.at(shard)->alive.load(std::memory_order_acquire);
}

const deploy::DsosStore& ShardedAnalyticsService::shard_store(
    std::size_t shard) const {
  return shards_.at(shard)->store;
}

std::size_t ShardedAnalyticsService::shard_queue_depth(std::size_t shard) const {
  return shards_.at(shard)->ingestor->queue_depth();
}

std::uint64_t ShardedAnalyticsService::shard_windows_scored(
    std::size_t shard) const {
  return shards_.at(shard)->scorer->windows_scored();
}

ShardedStats ShardedAnalyticsService::stats() const {
  ShardedStats stats;
  stats.offered_samples = offered_samples_.load(std::memory_order_relaxed);
  stats.shed_samples = shed_samples_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(query_gate_.mutex);
    stats.queries = query_gate_.admitted;
    stats.queries_shed = query_gate_.shed;
  }
  stats.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const IngestorStats s = shard->ingestor->stats();
    stats.totals.offered_samples += s.offered_samples;
    stats.totals.flushed_samples += s.flushed_samples;
    stats.totals.dropped_samples += s.dropped_samples;
    stats.totals.duplicate_samples += s.duplicate_samples;
    stats.totals.late_samples += s.late_samples;
    stats.totals.malformed_samples += s.malformed_samples;
    stats.totals.flushes += s.flushes;
    stats.per_shard.push_back(s);
  }
  return stats;
}

std::uint64_t ShardedAnalyticsService::windows_scored() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->scorer->windows_scored();
  return total;
}

std::uint64_t ShardedAnalyticsService::score_errors() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->scorer->score_errors();
  return total;
}

}  // namespace prodigy::stream
