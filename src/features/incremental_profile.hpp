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
//  * a merge-of-sorted-chunks multiset (SortedWindow) whose O(W)
//    concatenation at emission reproduces the fully sorted window
//    bit-exactly, replacing the per-window O(W log W) sort behind the
//    8 order/quantile features;
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

/// Counters aggregated across all metrics of one extractor.
struct IncrementalStats {
  std::uint64_t windows = 0;              // emissions (per extractor)
  std::uint64_t exact_fallbacks = 0;      // tainted metric-windows
  std::uint64_t scheduled_recomputes = 0; // interval-driven rebuilds
  std::uint64_t drift_recomputes = 0;     // sentinel-triggered rebuilds
};

/// Order-statistics structure for one sliding window: a sequence of small
/// sorted blocks whose concatenation is the ascending multiset of the
/// window's values.  insert/erase are O(W / B + B + log B) with block size
/// B; copy_sorted is a straight O(W) concatenation that reproduces
/// std::sort's output bit-exactly (equal doubles are interchangeable).
/// Values must be non-NaN (NaN-bearing windows use the exact fallback).
class SortedWindow {
 public:
  void insert(double value);
  /// Removes one instance; returns false if the value is absent (which
  /// indicates corrupted state — callers treat it as a rebuild trigger).
  bool erase(double value);
  void clear();
  /// Rebuilds from an unsorted window in O(W log W).
  void rebuild(std::span<const double> values);
  std::size_t size() const noexcept { return size_; }
  /// Overwrites `out` with all values in ascending order.  Takes the
  /// 64-byte-aligned scratch type: the concatenation feeds the feature
  /// kernels' vector loads.
  void copy_sorted(util::AlignedVec<double>& out) const;

 private:
  // Blocks split at 2 * kTargetBlock, so they stay cache-sized and the
  // per-insert memmove cost stays bounded.
  static constexpr std::size_t kTargetBlock = 64;
  std::vector<std::vector<double>> blocks_;  // nonempty, globally sorted
  std::size_t size_ = 0;
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
