#include "stream/online_scorer.hpp"

#include "features/feature_matrix.hpp"
#include "telemetry/metrics.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <exception>
#include <utility>

namespace prodigy::stream {

pipeline::PreprocessOptions streaming_preprocess_defaults() {
  pipeline::PreprocessOptions options;
  options.trim_seconds = 0.0;
  options.interpolate = true;
  options.diff_counters = true;
  options.min_timestamps = 8;
  return options;
}

OnlineScorer::OnlineScorer(core::ModelBundle bundle, EventBus& bus,
                           OnlineScorerConfig config)
    : bundle_(std::move(bundle)),
      bus_(bus),
      config_(config),
      plan_(bundle_.metadata.selected_columns),
      scored_(&util::MetricsRegistry::global().counter(
          "prodigy_stream_windows_scored_total")),
      latency_(&util::MetricsRegistry::global().histogram(
          "prodigy_stream_window_score_seconds")),
      skipped_(&util::MetricsRegistry::global().counter(
          "prodigy_stream_windows_skipped_total")),
      errors_(&util::MetricsRegistry::global().counter(
          "prodigy_stream_score_errors_total")) {
  if (config_.window == 0 || config_.hop == 0) {
    throw std::invalid_argument("OnlineScorer: window and hop must be > 0");
  }
  kinds_.reserve(telemetry::metric_count());
  for (const auto& spec : telemetry::metric_catalog()) {
    kinds_.push_back(spec.kind);
    col_kinds_.push_back(spec.kind == telemetry::MetricKind::Counter
                             ? features::ColumnKind::kCounter
                             : features::ColumnKind::kGauge);
  }

  // The incremental path needs overlapping windows to have anything to
  // reuse, a window large enough to profile, and window-local trimming off
  // (a trimmed window is not a suffix of the stream, so deltas can't feed
  // it).  Any other shape runs the full recompute, which gives the same bits.
  extraction_ = config_.hop < config_.window && config_.window >= 2 &&
                        config_.preprocess.trim_seconds == 0.0
                    ? ExtractionMode::kIncremental
                    : ExtractionMode::kFullRecompute;

  if (!config_.metrics_scope.empty()) {
    auto& registry = util::MetricsRegistry::global();
    const std::string prefix = "prodigy_stream_" + config_.metrics_scope;
    scoped_scored_ = &registry.counter(prefix + "_windows_scored_total");
    scoped_latency_ = &registry.histogram(prefix + "_window_score_seconds");
  }
}

OnlineScorer::~OnlineScorer() { drain(); }

util::ThreadPool& OnlineScorer::pool() const noexcept {
  return config_.pool != nullptr ? *config_.pool : util::ThreadPool::global();
}

void OnlineScorer::on_rows(std::int64_t job_id, std::int64_t component_id,
                           const std::string& app,
                           std::span<const std::int64_t> timestamps,
                           const tensor::Matrix& rows) {
  const bool incremental = extraction_ == ExtractionMode::kIncremental;
  auto& slot = nodes_[{job_id, component_id}];
  if (!slot) {
    slot = std::make_unique<NodeState>(job_id, component_id, config_.window,
                                       config_.hop, rows.cols());
    if (incremental) {
      // Safe to create here: the extractor is only touched by this node's
      // scoring task, and no window of this node is pending yet.
      features::IncrementalConfig inc;
      inc.window = config_.window;
      inc.hop = config_.hop;
      inc.interpolate = config_.preprocess.interpolate;
      inc.diff_counters = config_.preprocess.diff_counters;
      slot->extractor = std::make_unique<features::IncrementalNodeExtractor>(
          rows.cols(), col_kinds_, inc, plan_);
    }
  }
  NodeState& node = *slot;

  // Push row-by-row, draining ready windows eagerly so the ring buffer never
  // overwrites an unemitted window (see WindowState::pop).  The incremental
  // mode drains the delta form: only the hop's new rows travel to the
  // scoring task; the extractor holds the rest of the window as state.
  std::vector<PendingWindow> ready;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    node.state.push_row(timestamps[r], rows.row(r));
    while (node.state.ready()) {
      PendingWindow window;
      window.span = incremental ? node.state.pop_delta(window.values)
                                : node.state.pop(window.values);
      window.app = app;
      ready.push_back(std::move(window));
    }
  }
  if (ready.empty()) return;

  {
    std::lock_guard lock(drain_mutex_);
    in_flight_ += ready.size();
  }
  bool spawn = false;
  {
    std::lock_guard lock(node.task_mutex);
    for (auto& window : ready) node.pending.push_back(std::move(window));
    if (!node.task_active) {
      node.task_active = true;
      spawn = true;
    }
  }
  if (spawn) {
    // One task per node drains that node's queue in order: per-node verdicts
    // stay sequential (debouncing needs that) while nodes run concurrently.
    pool().submit([this, &node] { run_node_tasks(node); });
  }
}

void OnlineScorer::run_node_tasks(NodeState& node) {
  for (;;) {
    PendingWindow window;
    {
      std::lock_guard lock(node.task_mutex);
      if (node.pending.empty()) {
        node.task_active = false;
        // in_flight_ already hit zero for this node's windows; nothing to
        // decrement (this path is only reachable on a spurious respawn).
        return;
      }
      window = std::move(node.pending.front());
      node.pending.pop_front();
    }
    score_window(node, window);
    // Decide whether to continue BEFORE releasing the drain count: once
    // in_flight_ hits zero, drain() returns and the destructor may free
    // `node`, so the decrement must be this task's last touch of any state.
    bool more;
    {
      std::lock_guard lock(node.task_mutex);
      more = !node.pending.empty();
      if (!more) node.task_active = false;
    }
    {
      std::lock_guard lock(drain_mutex_);
      if (--in_flight_ == 0) drain_cv_.notify_all();
    }
    if (!more) return;
  }
}

void OnlineScorer::score_window(NodeState& node, PendingWindow& window) {
  util::Timer timer;
  try {
    // Capacity-reused per worker thread: one warmed-up 1 x F buffer per
    // scoring thread instead of a fresh heap matrix per window.
    thread_local tensor::Matrix X;
    if (node.extractor) {
      thread_local std::vector<double> features;
      features.resize(node.extractor->cols() * features::features_per_metric());
      if (!node.extractor->absorb_and_extract(window.values, features)) {
        // Still refilling after an error-recovery reset: the rolling state
        // does not cover a full window yet, so no verdict can be produced.
        windows_skipped_.fetch_add(1, std::memory_order_relaxed);
        skipped_->increment();
        return;
      }
      X.resize_for_overwrite(1, features.size());
      X.set_row(0, features);
    } else {
      const tensor::Matrix prepared =
          pipeline::preprocess_node(window.values, kinds_, config_.preprocess);
      const std::vector<double> features =
          features::extract_node_features(prepared, plan_);
      X.resize_for_overwrite(1, features.size());
      X.set_row(0, features);
    }
    const auto scores = bundle_.detector.score(bundle_.transform_full(X));

    VerdictEvent event;
    event.job_id = node.job_id;
    event.component_id = node.component_id;
    event.app = window.app;
    event.window_index = window.span.index;
    event.window_start_ts = window.span.start_ts;
    event.window_end_ts = window.span.end_ts;
    event.score = scores.at(0);
    event.threshold = bundle_.detector.threshold();
    event.anomalous = event.score > event.threshold;

    windows_scored_.fetch_add(1, std::memory_order_relaxed);
    scored_->increment();
    const double seconds = timer.elapsed_seconds();
    latency_->observe(seconds);
    if (scoped_scored_ != nullptr) {
      scoped_scored_->increment();
      scoped_latency_->observe(seconds);
    }
    bus_.publish(event);
  } catch (const std::exception& e) {
    // A daemon must survive one malformed window (e.g. a frame width that
    // does not match the bundle's feature space); count it and move on.
    score_errors_.fetch_add(1, std::memory_order_relaxed);
    errors_->increment();
    util::log_warn("OnlineScorer: window ", window.span.index, " of node ",
                   node.job_id, "/", node.component_id, " failed: ", e.what());
    if (node.extractor) {
      // The failed absorb may have left the rolling state half-updated
      // (poisoned); drop it and refill from the next window's deltas.
      node.extractor->reset();
    }
  }
}

void OnlineScorer::drain() {
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

}  // namespace prodigy::stream
