// Online scoring (the continuous half of the paper's Fig. 4 loop): consumes
// flushed telemetry rows from the StreamIngestor, maintains one sliding
// WindowState per (job, component), and scores every full window — raw
// window -> preprocess -> extract_node_features -> ModelBundle -> verdict —
// publishing one VerdictEvent per window to the EventBus.
//
// Scoring fans out across the shared ThreadPool with *per-node ordering*:
// each node's windows are scored and published in window order by a single
// chained task (so debouncing sees a coherent sequence), while different
// nodes score concurrently.  Feature extraction reuses the thread_local
// FeatureScratch hot path, so steady-state scoring allocates almost nothing.
#pragma once

#include "core/model_trainer.hpp"
#include "features/incremental_profile.hpp"
#include "pipeline/preprocess.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/window.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace prodigy::stream {

/// Streaming preprocessing defaults: identical cleaning to the batch path
/// (interpolate lost readings, difference counters) but no boundary trim —
/// a W-row window is already inside the steady phase of the run.
pipeline::PreprocessOptions streaming_preprocess_defaults();

/// How each ready window is turned into a feature vector.  The window shape
/// selects it (OnlineScorer::extraction_mode()); both give the same bits.
enum class ExtractionMode : std::uint8_t {
  /// Batch semantics per window: materialize all W rows, preprocess_node,
  /// extract_node_features.  O(W log W) per metric per hop.  Taken when the
  /// shape defeats reuse (hop >= window, window < 2) or requires
  /// whole-window preprocessing (trim_seconds != 0).
  kFullRecompute,
  /// Rolling per-(node, metric) state absorbs only the hop's new rows
  /// (features/incremental_profile.hpp).  Taken for every other shape.
  kIncremental,
};

struct OnlineScorerConfig {
  std::size_t window = 64;  // W: rows per scored window
  std::size_t hop = 16;     // H: rows between window starts
  pipeline::PreprocessOptions preprocess = streaming_preprocess_defaults();
  util::ThreadPool* pool = nullptr;  // nullptr -> util::ThreadPool::global()
  /// When non-empty (e.g. "shard3"), per-window latency and count are also
  /// recorded under scoped metric names
  /// (prodigy_stream_<scope>_window_score_seconds, ..._windows_scored_total)
  /// so a sharded deployment exposes per-shard p50/p99 next to the fleet
  /// totals.
  std::string metrics_scope;
};

class OnlineScorer : public RowSink {
 public:
  /// Owns a copy of the bundle; `bus` must outlive the scorer.
  OnlineScorer(core::ModelBundle bundle, EventBus& bus,
               OnlineScorerConfig config = {});
  ~OnlineScorer() override;

  OnlineScorer(const OnlineScorer&) = delete;
  OnlineScorer& operator=(const OnlineScorer&) = delete;

  /// RowSink: called on the ingestor's consumer thread.
  void on_rows(std::int64_t job_id, std::int64_t component_id,
               const std::string& app,
               std::span<const std::int64_t> timestamps,
               const tensor::Matrix& rows) override;

  /// Blocks until every scheduled window has been scored and published.
  /// Call after StreamIngestor::stop() to observe the complete alert stream.
  void drain();

  std::uint64_t windows_scored() const noexcept {
    return windows_scored_.load(std::memory_order_relaxed);
  }
  std::uint64_t score_errors() const noexcept {
    return score_errors_.load(std::memory_order_relaxed);
  }
  /// Windows dropped while an incremental extractor refills after an
  /// error-recovery reset (no verdict is published for them).
  std::uint64_t windows_skipped() const noexcept {
    return windows_skipped_.load(std::memory_order_relaxed);
  }
  const OnlineScorerConfig& config() const noexcept { return config_; }
  /// The extraction path the window shape selected (see ExtractionMode).
  ExtractionMode extraction_mode() const noexcept { return extraction_; }
  const core::ModelBundle& bundle() const noexcept { return bundle_; }

 private:
  struct PendingWindow {
    WindowSpan span;
    // kFullRecompute: the raw (window x cols) rows.  kIncremental: only the
    // rows new since the previous emission (pop_delta).
    tensor::Matrix values;
    std::string app;
  };

  struct NodeState {
    NodeState(std::int64_t job, std::int64_t component, std::size_t window,
              std::size_t hop, std::size_t cols)
        : job_id(job), component_id(component), state(window, hop, cols) {}
    const std::int64_t job_id;
    const std::int64_t component_id;
    WindowState state;  // ingestor-consumer-thread only

    // Created on first on_rows (cols known then); afterwards touched only
    // by this node's single chained scoring task.  Null in full mode.
    std::unique_ptr<features::IncrementalNodeExtractor> extractor;

    std::mutex task_mutex;  // guards pending + task_active
    std::deque<PendingWindow> pending;
    bool task_active = false;
  };

  void run_node_tasks(NodeState& node);
  void score_window(NodeState& node, PendingWindow& window);
  util::ThreadPool& pool() const noexcept;

  core::ModelBundle bundle_;
  EventBus& bus_;
  OnlineScorerConfig config_;
  ExtractionMode extraction_ = ExtractionMode::kFullRecompute;
  // The features the bundle reads (its selected columns); every window
  // extracts only those.
  features::FeaturePlan plan_;
  // Registry-owned instrumentation, resolved once so the hot path bumps
  // atomics instead of looking names up.  The scoped per-shard pair is
  // null when metrics_scope is empty.
  util::Counter* scored_;
  util::Histogram* latency_;
  util::Counter* skipped_;
  util::Counter* errors_;
  util::Counter* scoped_scored_ = nullptr;
  util::Histogram* scoped_latency_ = nullptr;
  std::vector<telemetry::MetricKind> kinds_;
  std::vector<features::ColumnKind> col_kinds_;  // kinds_ mapped for features

  // Touched only on the ingestor consumer thread; node addresses are stable
  // so scoring tasks can hold references across map growth.
  std::map<std::pair<std::int64_t, std::int64_t>, std::unique_ptr<NodeState>>
      nodes_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t in_flight_ = 0;  // windows scheduled but not yet published

  std::atomic<std::uint64_t> windows_scored_{0};
  std::atomic<std::uint64_t> score_errors_{0};
  std::atomic<std::uint64_t> windows_skipped_{0};
};

}  // namespace prodigy::stream
