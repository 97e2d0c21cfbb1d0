#include "features/series_profile.hpp"

#include "features/kernels.hpp"
#include "util/aligned.hpp"

#include <algorithm>
#include <cmath>

namespace prodigy::features {

SeriesProfile compute_series_profile(std::span<const double> xs,
                                     FeatureScratch& scratch,
                                     const MetricPlan& plan) {
  SeriesProfile p;
  p.xs = xs;
  p.n = xs.size();
  const std::size_t n = p.n;

  // Pass 1: sum and energy through the lane kernel (the incremental engine
  // routes through the same kernel, which is what keeps the two paths
  // bit-exact against each other), then extrema with locations.
  {
    const auto se = kernels::sum_energy(xs);
    p.sum = se.sum;
    p.abs_energy = se.energy;
  }
  if (n > 0) {
    p.mean = p.sum / static_cast<double>(n);
    for (std::size_t i = 1; i < n; ++i) {
      if (xs[i] > xs[p.first_max]) p.first_max = i;
      if (xs[i] < xs[p.first_min]) p.first_min = i;
      // The "last" updates are negated comparisons on purpose: for finite
      // data they mean >= / <= (latest tie wins), but when either side is
      // NaN they still fire, matching the standalone extractors' tie rule
      // `!better(xs[last], xs[i])` bit for bit on NaN-bearing input.
      if (!(xs[p.last_max] > xs[i])) p.last_max = i;
      if (!(xs[p.last_min] < xs[i])) p.last_min = i;
    }
    p.min = xs[p.first_min];
    p.max = xs[p.first_max];
  }

  // Pass 2 (needs the mean): variance and the mean-relative run statistics.
  if (n >= 2) {
    p.variance = kernels::centered_sq_sum(xs, p.mean) / static_cast<double>(n);
  }
  p.stddev = std::sqrt(p.variance);
  {
    const auto rs = kernels::run_stats(xs, p.mean);
    p.count_above = rs.count_above;
    p.count_below = rs.count_below;
    p.longest_above = rs.longest_above;
    p.longest_below = rs.longest_below;
    p.crossings = rs.crossings;
  }

  // Pass 3: successive differences.
  p.abs_change_sum = kernels::abs_change_sum(xs);

  // One sort (order statistics), one FFT (spectral family, when the plan
  // reads it), one fit (trend).
  // NaNs are excluded before sorting: std::sort on NaN violates strict weak
  // ordering (UB), and historically they sorted to the tail where the upper
  // quantiles read them.  Consumers see nan_count > 0 and propagate NaN.
  scratch.sorted.clear();
  scratch.sorted.reserve(xs.size());
  for (double x : xs) {
    if (x != x) {
      ++p.nan_count;
    } else {
      scratch.sorted.push_back(x);
    }
  }
  std::sort(scratch.sorted.begin(), scratch.sorted.end());
  p.sorted = scratch.sorted;

  util::debug_assert_aligned(scratch.sorted.data());
  if (plan.spectrum) {
    power_spectrum(xs, scratch.fft, scratch.power);
    util::debug_assert_aligned(scratch.fft.data());
    util::debug_assert_aligned(scratch.power.data());
    p.power = scratch.power;
    p.spectral =
        spectral_summary_from_power(scratch.power, plan.spectral_entropy);
  }

  p.trend = linear_trend(xs);
  return p;
}

}  // namespace prodigy::features
