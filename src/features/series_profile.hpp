// The shared-computation substrate of the feature-extraction engine.
//
// The registry's ~67 features per metric overlap heavily in what they need
// from a series: one FFT powers nine spectral features, one linear fit
// powers three trend features, one sorted copy powers eight order
// statistics, and ~20 extractors want the same mean/stddev.  A
// SeriesProfile computes every shared intermediate exactly once per series;
// the grouped extractors in registry.cpp then read from it.  Each shared
// quantity is accumulated with the same loop structure and operation order
// as the original standalone extractor, so grouped features are
// bit-identical to the per-feature implementations (guarded by
// tests/feature_parity_test.cpp).
#pragma once

#include "features/extractors.hpp"
#include "features/fft.hpp"
#include "features/registry.hpp"
#include "util/aligned.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace prodigy::features {

/// Peak supports used by the `peaks` feature group.  Shared between the
/// batch registry and the incremental engine's rolling peak-flag ring so the
/// two paths can never drift apart.
inline constexpr std::size_t kPeakSupports[] = {1, 3, 5};
inline constexpr std::size_t kPeakSupportCount =
    sizeof(kPeakSupports) / sizeof(kPeakSupports[0]);

/// Embedding dimension of the `entropy` group's approximate entropy.
/// Shared with the incremental engine, which builds that call's template
/// order (see RollingStats::apen_values).
inline constexpr std::size_t kApEnDim = 2;

/// Window statistics the incremental engine carries as integer counts
/// (peak flags, Benford first-digit histogram) or reads off its carried
/// sorted order (approximate entropy's template order).  Integer counts
/// slide bit-exactly, so the values here equal the batch extractors' output
/// and the registry can skip the O(n) rescans and the sort.  Null on the
/// batch path.
struct RollingStats {
  double peaks[kPeakSupportCount] = {};  // number_peaks(xs, support)
  double benford = 0.0;                  // benford_correlation(xs)
  /// Dim-1 template order for approximate_entropy(xs, kApEnDim, ...) over
  /// its subsampled series s: the values s[i] of the first
  /// s.size() - kApEnDim + 1 positions in ascending order, apen_index the
  /// matching i.
  bool has_apen_order = false;
  std::span<const double> apen_values;
  std::span<const std::uint32_t> apen_index;
};

/// Reusable per-thread buffers for profile construction.  Hot callers
/// (extract_node_features) keep one per worker thread so a window's worth
/// of metrics is extracted without per-series allocations.  All buffers are
/// 64-byte aligned so the feature-kernel TU's full-width vector loads are
/// never split across cache lines.
struct FeatureScratch {
  util::AlignedVec<double> column;             // gathered metric series
  util::AlignedVec<double> sorted;             // sorted copy of the series
  util::AlignedVec<double> fft;                // FFT work buffer (re, im)
  util::AlignedVec<double> power;              // one-sided power spectrum
  // Approximate entropy's template order (incremental engine only).
  util::AlignedVec<double> apen_values;
  std::vector<std::uint32_t> apen_index;
};

/// Everything the grouped extractors share, computed in a handful of passes
/// (plus one sort and one FFT).  `xs`, `sorted` and `power` are views: `xs`
/// into the caller's series, `sorted`/`power` into the FeatureScratch used
/// to build the profile, so the profile is valid only while both outlive it.
struct SeriesProfile {
  std::span<const double> xs;
  std::size_t n = 0;

  // Moments (same formulas as tensor::sum/mean/variance/stddev).
  double sum = 0.0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  double abs_energy = 0.0;  // sum of squares

  // Extrema and their first/last locations (ties kept like the
  // first_last_extreme helper in extractors.cpp: first strict, last loose).
  double min = 0.0;
  double max = 0.0;
  std::size_t first_max = 0;
  std::size_t last_max = 0;
  std::size_t first_min = 0;
  std::size_t last_min = 0;

  // Successive-difference statistics.
  double abs_change_sum = 0.0;  // sum |x[i] - x[i-1]| (n >= 2, else 0)

  // Mean-relative run statistics, one pass.
  std::size_t count_above = 0;
  std::size_t count_below = 0;
  std::size_t longest_above = 0;
  std::size_t longest_below = 0;
  std::size_t crossings = 0;

  /// Ascending copy of xs *excluding NaNs* (std::sort's ordering contract
  /// forbids them); `nan_count` records how many were dropped so the
  /// order-statistics consumers can propagate NaN instead of silently
  /// reading a truncated tail.
  std::span<const double> sorted;
  std::size_t nan_count = 0;
  std::span<const double> power;   // one-sided power spectrum of xs
  SpectralSummary spectral;
  LinearTrendResult trend;

  /// Set by the incremental engine when its carried state covers this
  /// window; batch-built profiles leave it null.
  const RollingStats* rolling = nullptr;
};

/// Builds the profile for one series, reusing the scratch buffers.  The
/// returned profile's spans point into `xs` and `scratch`.  A plan that reads
/// no spectral_* feature leaves `power` empty and `spectral` zero; one that
/// does not read spectral_entropy leaves `spectral.entropy` zero.
SeriesProfile compute_series_profile(
    std::span<const double> xs, FeatureScratch& scratch,
    const MetricPlan& plan = MetricPlan::all());

}  // namespace prodigy::features
