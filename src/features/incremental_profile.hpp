// Incremental sliding-window feature extraction: the streaming counterpart
// of the single-pass SeriesProfile engine.
//
// Batch extraction recomputes all ~67 features from scratch for every
// emitted window — O(W log W) per metric per hop, dominated by the sort and
// the FFT.  For overlapping windows (hop H < window W) consecutive windows
// share W - H rows, so almost all of that work repeats.  An
// IncrementalNodeExtractor keeps per-metric rolling state that absorbs the
// H new rows and retires the H expired rows per hop:
//
//  * a K-shifted rolling sum used as a *drift sentinel*: the exact
//    window sum is recomputed each emission anyway (it is cheap and
//    makes mean-derived features bit-identical to the batch path), so
//    comparing it against the rolling sum bounds the accumulated float
//    drift of the carried state and triggers an exact rebuild
//    when it exceeds tolerance;
//  * a carried sorted order (SortedWindow): one flat ascending array of
//    (value, row) per metric.  Rows arriving between emissions are only
//    queued; at emission one branch-free pass drops the expired rows and
//    the <= H queued rows are sorted and merged in from the back.  The
//    array replaces the per-window O(W log W) sort behind the 8
//    order/quantile features, and approximate entropy reads its dim-1
//    template order from it (one O(W) filter through a window-position ->
//    series-index map) instead of sorting its templates;
//  * expiry-aware extrema: min/max and their first/last locations are
//    updated per push and re-scanned only when the retiring rows held the
//    recorded extreme.
//
// The 9 spectral features call the batch profile's power_spectrum on every
// emission, so they carry no state.
//
// Counter metrics are handled without reprocessing: the stream keeps global
// first differences r[t] = x[t] - x[t-1], and the batch path's window-local
// boundary rule (rates[0] = rates[1]) is applied as O(1) corrections to the
// sum/sorted/integer state at emission time.
//
// Windows containing non-finite samples taint the incremental state and
// fall back to the exact batch computation (materialize raw rows ->
// linear_interpolate -> counter_to_rate -> compute_all_features), so
// NaN-bearing windows score bit-identically to the batch path.  Every
// window matches the batch oracle bit-exactly on all features (guarded by
// tests/incremental_profile_test.cpp over >= 200 consecutive hops).
#pragma once

#include "features/series_profile.hpp"
#include "tensor/matrix.hpp"
#include "util/aligned.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace prodigy::features {

/// How a column is cleaned before extraction (mirrors
/// telemetry::MetricKind without depending on the telemetry catalog).
enum class ColumnKind : std::uint8_t {
  kGauge,    // used as-is
  kCounter,  // first-differenced (rates), window-local boundary rule
};

struct IncrementalConfig {
  std::size_t window = 64;  // W: rows per emitted window (>= 2)
  std::size_t hop = 16;     // H: rows between emissions (validated >= 1
                            // but not read; the extractor emits whenever
                            // the caller asks)
  bool interpolate = true;     // fallback path: fill non-finite gaps
  bool diff_counters = true;   // treat kCounter columns as counters
  /// Emissions between exact rebuilds of the rolling state (bounds float
  /// drift to what can accumulate across this many add/retire cycles).
  std::size_t recompute_interval = 64;
  /// Relative tolerance for the drift sentinel (rolling-vs-exact window
  /// sum); exceeding it triggers an immediate exact rebuild.
  double drift_tolerance = 1e-9;
};

/// Counters aggregated across all metrics of one extractor since
/// construction (reset() keeps them).
struct IncrementalStats {
  std::uint64_t windows = 0;              // emissions (per extractor)
  std::uint64_t exact_fallbacks = 0;      // tainted metric-windows
  std::uint64_t scheduled_recomputes = 0; // interval-driven rebuilds
  std::uint64_t drift_recomputes = 0;     // sentinel-triggered rebuilds
};

/// Order-statistics structure for one sliding window, carried across hops:
/// one flat array of the window's values in ascending order, each paired
/// with its row (the low 32 bits of the global row index).  push() only
/// queues a new row; advance(start) brings the array to the window that
/// begins at row `start` in O(W + P log P) for P queued rows: one
/// branch-free pass drops the rows older than `start`, then the sorted
/// queue is merged in from the back.  values() equals std::sort of the live
/// rows' values bit-exactly (equal doubles are interchangeable) and rows()
/// is a permutation of the live rows with values()[k] the value pushed for
/// rows()[k].  Values must be non-NaN (NaN-bearing windows use the exact
/// fallback); the live rows and the queue must lie within 2^31 rows of
/// `start`.
class SortedWindow {
 public:
  /// Queues (value, row) for the next advance().
  void push(double value, std::uint64_t row);
  /// Drops every row < start (array and queue), then merges the queue.
  void advance(std::uint64_t start);
  /// Replaces the contents with `values[i]` at row start + i, sorted once
  /// (O(W log W)); drops the queue.
  void rebuild(std::span<const double> values, std::uint64_t start);
  /// Empties the array and the queue (capacity is kept).
  void clear();
  std::size_t size() const noexcept { return values_.size(); }
  std::span<const double> values() const noexcept { return values_; }
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

 private:
  util::AlignedVec<double> values_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::pair<double, std::uint32_t>> pending_;
};

/// Per-node incremental extractor: one rolling state per metric column.
/// Thread-compatible (external synchronization; the streaming scorer calls
/// it from one per-node task at a time) — internally the per-metric work
/// fans out across util::parallel_for.
class IncrementalNodeExtractor {
 public:
  /// `kinds.size()` may be smaller than `cols`; extra columns are gauges.
  IncrementalNodeExtractor(std::size_t cols, std::vector<ColumnKind> kinds,
                           IncrementalConfig config);
  ~IncrementalNodeExtractor();

  IncrementalNodeExtractor(const IncrementalNodeExtractor&) = delete;
  IncrementalNodeExtractor& operator=(const IncrementalNodeExtractor&) = delete;

  /// Absorbs `delta` (rows x cols, time order: the rows new since the
  /// previous call — H rows in steady state, the full window for the
  /// first emission) and, if at least one full window has been absorbed,
  /// writes all cols * features_per_metric() features for the window
  /// ending at the last absorbed row into `out` (metric-major, same
  /// layout as extract_node_features) and returns true.  Returns false
  /// while the window is still filling (only after construction/reset).
  bool absorb_and_extract(const tensor::Matrix& delta, std::span<double> out);

  /// Drops all rolling state; the next window must be refilled from
  /// scratch.  Used by the scorer to recover from a failed absorb.
  void reset();

  std::size_t cols() const noexcept;
  std::size_t window() const noexcept;
  /// True once a full window has been absorbed since construction/reset.
  bool window_complete() const noexcept;
  IncrementalStats stats() const;

 private:
  struct MetricState;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prodigy::features
