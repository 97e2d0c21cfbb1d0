// DSOS stand-in (paper §4.1): the monitoring cluster's object store that
// continuously ingests ldmsd sampler data and answers job-scoped queries
// from the analytics pipeline.  In-memory with a binary file snapshot; keyed
// by (job_id, component_id) exactly as the paper's prepared frames are.
//
// Concurrency model: readers (dashboard queries) take a shared lock and run
// in parallel; writers (ldmsd ingest) take an exclusive lock.  Every ingest
// bumps a store-wide generation counter and stamps the touched job with it,
// so callers can key caches by (job, generation) and detect re-ingest
// without holding the lock across the whole analysis.
#pragma once

#include "telemetry/generator.hpp"
#include "util/serialize.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace prodigy::deploy {

class DsosStore {
 public:
  DsosStore() = default;

  // Movable (fresh mutex in the destination); not copyable.  The source is
  // locked exclusively while its maps are stolen so a move racing with
  // concurrent ingest never reads torn map internals.
  DsosStore(DsosStore&& other) noexcept {
    std::unique_lock lock(other.mutex_);
    nodes_ = std::move(other.nodes_);
    job_apps_ = std::move(other.job_apps_);
    job_generation_ = std::move(other.job_generation_);
    generation_ = other.generation_;
  }
  DsosStore& operator=(DsosStore&& other) noexcept {
    if (this != &other) {
      std::scoped_lock lock(mutex_, other.mutex_);
      nodes_ = std::move(other.nodes_);
      job_apps_ = std::move(other.job_apps_);
      job_generation_ = std::move(other.job_generation_);
      generation_ = other.generation_;
    }
    return *this;
  }
  DsosStore(const DsosStore&) = delete;
  DsosStore& operator=(const DsosStore&) = delete;

  /// Ingests one job's telemetry (all nodes).  Thread-safe; re-ingesting a
  /// job id replaces its data (aggregation restart semantics).
  void ingest(const telemetry::JobTelemetry& job);

  /// Ingests a single node series (streaming ldmsd aggregation path).
  /// Re-ingesting a (job, component) replaces that series wholesale.
  void ingest_node(const telemetry::NodeSeries& node);

  /// Appends the delta's rows to the (job, component) series, creating it
  /// when absent — how a streaming aggregator accumulates telemetry.  The
  /// series grows in place, so an append costs amortized O(rows appended)
  /// however long the history.  The delta's column count must match the
  /// existing series (throws std::invalid_argument otherwise, leaving the
  /// store unchanged).  When appending to an existing series, the original
  /// label/anomaly ground truth is kept; the app name is reassigned like
  /// ingest's.
  void append_node(const telemetry::NodeSeries& delta);

  std::vector<std::int64_t> job_ids() const;
  bool has_job(std::int64_t job_id) const;

  /// Full telemetry of one job; throws std::out_of_range if absent.  When
  /// `generation` is non-null it receives the job's generation stamp read
  /// under the same lock as the data, i.e. the data/generation pair is a
  /// consistent snapshot even with concurrent writers.
  telemetry::JobTelemetry query_job(std::int64_t job_id,
                                    std::uint64_t* generation = nullptr) const;

  /// Component ids attached to a job.
  std::vector<std::int64_t> components_of(std::int64_t job_id) const;

  /// One node's series; throws std::out_of_range if absent.
  telemetry::NodeSeries query_node(std::int64_t job_id,
                                   std::int64_t component_id) const;

  /// Monotonic per-job ingest stamp: 0 for unknown jobs, otherwise the value
  /// of the store-wide generation counter when the job was last written.
  std::uint64_t job_generation(std::int64_t job_id) const;

  /// Store-wide generation counter: total number of ingest operations.
  std::uint64_t generation() const;

  std::size_t job_count() const;
  /// Total stored readings (timestamps x metrics over all nodes).
  std::size_t datapoint_count() const;

  void save(const std::string& path) const;
  static DsosStore load(const std::string& path);

 private:
  using NodeKey = std::pair<std::int64_t, std::int64_t>;  // (job, component)

  mutable std::shared_mutex mutex_;
  std::map<NodeKey, telemetry::NodeSeries> nodes_;
  std::map<std::int64_t, std::string> job_apps_;
  std::map<std::int64_t, std::uint64_t> job_generation_;
  std::uint64_t generation_ = 0;
};

}  // namespace prodigy::deploy
