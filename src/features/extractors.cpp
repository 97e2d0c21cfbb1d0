#include "features/extractors.hpp"

#include "features/kernels.hpp"
#include "tensor/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

namespace prodigy::features {

double abs_energy(std::span<const double> xs) noexcept {
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return acc;
}

double root_mean_square(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return std::sqrt(abs_energy(xs) / static_cast<double>(xs.size()));
}

double mean_abs_change(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) acc += std::abs(xs[i] - xs[i - 1]);
  return acc / static_cast<double>(xs.size() - 1);
}

double mean_change(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  return (xs.back() - xs.front()) / static_cast<double>(xs.size() - 1);
}

double absolute_sum_of_changes(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) acc += std::abs(xs[i] - xs[i - 1]);
  return acc;
}

double mean_second_derivative_central(std::span<const double> xs) noexcept {
  if (xs.size() < 3) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i + 1 < xs.size(); ++i) {
    acc += 0.5 * (xs[i + 1] - 2.0 * xs[i] + xs[i - 1]);
  }
  return acc / static_cast<double>(xs.size() - 2);
}

double variation_coefficient(double mean, double stddev) noexcept {
  if (mean == 0.0) return 0.0;
  return stddev / std::abs(mean);
}

double variation_coefficient(std::span<const double> xs) noexcept {
  const double m = tensor::mean(xs);
  if (m == 0.0) return 0.0;
  return variation_coefficient(m, tensor::stddev(xs));
}

double value_range(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return tensor::max_value(xs) - tensor::min_value(xs);
}

double interquartile_range(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  // tensor::quantile propagates NaN instead of sorting it (UB); the IQR of
  // a NaN-bearing series is NaN, matching the grouped registry path.
  return tensor::quantile(xs, 0.75) - tensor::quantile(xs, 0.25);
}

namespace {

template <typename Compare>
std::pair<std::size_t, std::size_t> first_last_extreme(std::span<const double> xs,
                                                       Compare better) noexcept {
  std::size_t first = 0, last = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (better(xs[i], xs[first])) first = i;
    if (!better(xs[last], xs[i])) last = i;  // >= / <= keeps the latest tie
  }
  return {first, last};
}

double relative(std::size_t index, std::size_t n) noexcept {
  return n == 0 ? 0.0 : static_cast<double>(index) / static_cast<double>(n);
}

}  // namespace

double first_location_of_maximum(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return relative(first_last_extreme(xs, std::greater<>()).first, xs.size());
}

double last_location_of_maximum(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return relative(first_last_extreme(xs, std::greater<>()).second, xs.size());
}

double first_location_of_minimum(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return relative(first_last_extreme(xs, std::less<>()).first, xs.size());
}

double last_location_of_minimum(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return relative(first_last_extreme(xs, std::less<>()).second, xs.size());
}

double count_above_mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = tensor::mean(xs);
  std::size_t count = 0;
  for (double x : xs) count += x > m ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

double count_below_mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = tensor::mean(xs);
  std::size_t count = 0;
  for (double x : xs) count += x < m ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

namespace {

double longest_strike(std::span<const double> xs, bool above) noexcept {
  if (xs.empty()) return 0.0;
  const double m = tensor::mean(xs);
  std::size_t best = 0, current = 0;
  for (double x : xs) {
    const bool hit = above ? x > m : x < m;
    current = hit ? current + 1 : 0;
    best = std::max(best, current);
  }
  return static_cast<double>(best) / static_cast<double>(xs.size());
}

}  // namespace

double longest_strike_above_mean(std::span<const double> xs) noexcept {
  return longest_strike(xs, true);
}

double longest_strike_below_mean(std::span<const double> xs) noexcept {
  return longest_strike(xs, false);
}

double mean_crossing_rate(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = tensor::mean(xs);
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if ((xs[i - 1] > m) != (xs[i] > m)) ++crossings;
  }
  return static_cast<double>(crossings) / static_cast<double>(xs.size() - 1);
}

double number_peaks(std::span<const double> xs, std::size_t support) noexcept {
  if (xs.size() < 2 * support + 1 || support == 0) return 0.0;
  std::size_t peaks = 0;
  for (std::size_t i = support; i + support < xs.size(); ++i) {
    bool is_peak = true;
    for (std::size_t k = 1; k <= support && is_peak; ++k) {
      if (xs[i] <= xs[i - k] || xs[i] <= xs[i + k]) is_peak = false;
    }
    if (is_peak) ++peaks;
  }
  return static_cast<double>(peaks) / static_cast<double>(xs.size());
}

double ratio_beyond_r_sigma(std::span<const double> xs, double r, double mean,
                            double stddev) noexcept {
  if (xs.empty()) return 0.0;
  if (stddev == 0.0) return 0.0;
  std::size_t count = 0;
  for (double x : xs) count += std::abs(x - mean) > r * stddev ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

double ratio_beyond_r_sigma(std::span<const double> xs, double r) noexcept {
  return ratio_beyond_r_sigma(xs, r, tensor::mean(xs), tensor::stddev(xs));
}

double c3(std::span<const double> xs, std::size_t lag) noexcept {
  if (xs.size() < 2 * lag + 1 || lag == 0) return 0.0;
  double acc = 0.0;
  const std::size_t n = xs.size() - 2 * lag;
  for (std::size_t i = 0; i < n; ++i) {
    acc += xs[i + 2 * lag] * xs[i + lag] * xs[i];
  }
  return acc / static_cast<double>(n);
}

double time_reversal_asymmetry(std::span<const double> xs, std::size_t lag) noexcept {
  if (xs.size() < 2 * lag + 1 || lag == 0) return 0.0;
  double acc = 0.0;
  const std::size_t n = xs.size() - 2 * lag;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = xs[i + 2 * lag];
    const double b = xs[i + lag];
    const double c = xs[i];
    acc += a * a * b - b * c * c;
  }
  return acc / static_cast<double>(n);
}

double cid_ce(std::span<const double> xs, bool normalize, double mean,
              double stddev) noexcept {
  if (xs.size() < 2) return 0.0;
  double acc = 0.0;
  if (normalize) {
    if (stddev == 0.0) return 0.0;
    double prev = (xs[0] - mean) / stddev;
    for (std::size_t i = 1; i < xs.size(); ++i) {
      const double current = (xs[i] - mean) / stddev;
      const double d = current - prev;
      acc += d * d;
      prev = current;
    }
  } else {
    for (std::size_t i = 1; i < xs.size(); ++i) {
      const double d = xs[i] - xs[i - 1];
      acc += d * d;
    }
  }
  return std::sqrt(acc);
}

double cid_ce(std::span<const double> xs, bool normalize) noexcept {
  if (!normalize) return cid_ce(xs, false, 0.0, 0.0);
  return cid_ce(xs, true, tensor::mean(xs), tensor::stddev(xs));
}

namespace {

/// approximate_entropy's body.  `ordered` selects the caller's dim-1 order
/// (order_values/order_index) over the kernel's own sort.
double approximate_entropy_impl(std::span<const double> xs, std::size_t m,
                                double r_frac, bool ordered,
                                std::span<const double> order_values,
                                std::span<const std::uint32_t> order_index) {
  thread_local std::vector<double> series;
  if (xs.size() > kApEnMaxPoints) {
    series.resize(kApEnMaxPoints);
    for (std::size_t i = 0; i < kApEnMaxPoints; ++i) {
      series[i] = xs[apen_sample_position(i, xs.size())];
    }
  } else {
    series.assign(xs.begin(), xs.end());
  }
  const std::size_t n = series.size();
  if (n < m + 2) return 0.0;
  const double r = r_frac * tensor::stddev(series);
  if (r == 0.0) return 0.0;
  // Non-finite tolerance (NaN/inf values in the window make stddev NaN or
  // inf): every `> r` mismatch test below is false, so the historical loop
  // counted every pair as a match in both dims, making phi_lo == phi_hi ==
  // log(1) == 0 exactly.  Short-circuit that result here — it also keeps
  // NaNs away from the sort in the prefilter.
  if (!std::isfinite(r)) return 0.0;

  // Exact pair-match counts for embedding dims m and m+1 in one symmetric
  // sweep: a dim-(m+1) match is a dim-m match whose next component also
  // agrees, so the expensive prefix comparison is shared, and (i, j) /
  // (j, i) are counted together.  The kernel runs the sorted dim-1
  // prefilter as a vector diagonal sweep over lane-contiguous arrays;
  // counts are integers, so the lane order (and the order of tied first
  // components) cannot change them, and the phi log-sums below keep the
  // original index order — the result is bit-identical to the naive
  // two-pass O(2 n^2 m) loop.
  const std::size_t count_lo = n - m + 1;  // windows of length m
  const std::size_t count_hi = n - m;      // windows of length m+1
  thread_local std::vector<std::uint32_t> matches_lo;
  thread_local std::vector<std::uint32_t> matches_hi;
  matches_lo.assign(count_lo, 1);  // self-match
  matches_hi.assign(count_hi, 1);
  thread_local kernels::ApEnScratch apen_scratch;
  if (ordered) {
    kernels::apen_match_counts_ordered(series, m, r, order_values,
                                       order_index, matches_lo, matches_hi,
                                       apen_scratch);
  } else {
    kernels::apen_match_counts(series, m, r, matches_lo, matches_hi,
                               apen_scratch);
  }

  // Match counts are small integers in [1, count], so the log terms repeat
  // heavily; precompute log(k / count) once per distinct count (two per
  // call, stable across calls at a fixed window size).  Each table entry is
  // the same expression the loop evaluated inline, and the summation stays
  // in index order, so the result is bit-identical.
  auto phi = [](std::span<const std::uint32_t> matches,
                std::vector<double>& table) {
    const double count = static_cast<double>(matches.size());
    if (table.size() != matches.size() + 1) {
      table.resize(matches.size() + 1);
      for (std::size_t k = 1; k <= matches.size(); ++k) {
        table[k] = std::log(static_cast<double>(k) / count);
      }
    }
    double total = 0.0;
    for (const auto matched : matches) total += table[matched];
    return total / count;
  };
  thread_local std::vector<double> log_table_lo;
  thread_local std::vector<double> log_table_hi;
  return std::abs(phi(matches_lo, log_table_lo) -
                  phi(matches_hi, log_table_hi));
}

}  // namespace

double approximate_entropy(std::span<const double> xs, std::size_t m,
                           double r_frac) {
  return approximate_entropy_impl(xs, m, r_frac, false, {}, {});
}

double approximate_entropy(std::span<const double> xs, std::size_t m,
                           double r_frac, std::span<const double> order_values,
                           std::span<const std::uint32_t> order_index) {
  return approximate_entropy_impl(xs, m, r_frac, true, order_values,
                                  order_index);
}

double binned_entropy(std::span<const double> xs, std::size_t max_bins,
                      double min_value, double max_value) {
  if (xs.empty() || max_bins == 0) return 0.0;
  const double lo = min_value;
  const double hi = max_value;
  if (hi <= lo) return 0.0;
  std::vector<std::size_t> counts(max_bins, 0);
  for (double x : xs) {
    auto bin = static_cast<std::size_t>((x - lo) / (hi - lo) * static_cast<double>(max_bins));
    counts[std::min(bin, max_bins - 1)]++;
  }
  double entropy = 0.0;
  for (std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / static_cast<double>(xs.size());
    entropy -= p * std::log(p);
  }
  return entropy;
}

double binned_entropy(std::span<const double> xs, std::size_t max_bins) {
  if (xs.empty() || max_bins == 0) return 0.0;
  return binned_entropy(xs, max_bins, tensor::min_value(xs),
                        tensor::max_value(xs));
}

double binned_entropy_sorted(std::span<const double> sorted,
                             std::size_t max_bins, double min_value,
                             double max_value) {
  if (sorted.empty() || max_bins == 0) return 0.0;
  const double lo = min_value;
  const double hi = max_value;
  if (hi <= lo) return 0.0;
  // The scan path's bin map, verbatim.  Every step — subtraction of a
  // constant, division by a positive constant, multiplication by a positive
  // constant, the size_t truncation, the min clamp — is monotone
  // non-decreasing in x under round-to-nearest, so on an ascending input
  // the bin sequence is non-decreasing and each bin's population is a
  // contiguous range: max_bins binary searches replace the O(n) scatter
  // pass, with bit-identical counts.  Callers must pass finite values
  // (the profile's sorted copy excludes NaNs; non-finite extrema take the
  // scan path).
  const auto bin_of = [&](double x) {
    const auto bin = static_cast<std::size_t>(
        (x - lo) / (hi - lo) * static_cast<double>(max_bins));
    return std::min(bin, max_bins - 1);
  };
  const double n = static_cast<double>(sorted.size());
  double entropy = 0.0;
  const double* cursor = sorted.data();
  const double* const end = sorted.data() + sorted.size();
  for (std::size_t b = 0; b < max_bins && cursor != end; ++b) {
    const double* next = std::partition_point(
        cursor, end, [&](double x) { return bin_of(x) <= b; });
    const auto count = static_cast<std::size_t>(next - cursor);
    cursor = next;
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log(p);
  }
  return entropy;
}

int benford_first_digit(double x) noexcept {
  double v = std::abs(x);
  if (v == 0.0 || !std::isfinite(v)) return 0;
  while (v >= 10.0) v /= 10.0;
  while (v < 1.0) v *= 10.0;
  return static_cast<int>(v);  // 1..9
}

double benford_correlation_from_counts(
    const std::array<std::uint32_t, 9>& counts, std::size_t counted) {
  if (counted == 0) return 0.0;
  std::array<double, 9> observed{};
  for (std::size_t i = 0; i < 9; ++i) {
    observed[i] =
        static_cast<double>(counts[i]) / static_cast<double>(counted);
  }
  std::array<double, 9> benford{};
  for (std::size_t d = 1; d <= 9; ++d) {
    benford[d - 1] = std::log10(1.0 + 1.0 / static_cast<double>(d));
  }
  return tensor::pearson_correlation(observed, benford);
}

double benford_correlation(std::span<const double> xs) {
  std::array<std::uint32_t, 9> counts{};
  std::size_t counted = 0;
  for (double x : xs) {
    const int digit = benford_first_digit(x);
    if (digit == 0) continue;
    ++counts[static_cast<std::size_t>(digit - 1)];
    ++counted;
  }
  return benford_correlation_from_counts(counts, counted);
}

LinearTrendResult linear_trend(std::span<const double> xs) noexcept {
  LinearTrendResult result;
  const std::size_t n = xs.size();
  if (n < 2) return result;
  const double nd = static_cast<double>(n);
  const double t_mean = (nd - 1.0) / 2.0;
  // The mean and the least-squares sums both go through the lane kernels so
  // every linear_trend caller (batch and incremental alike) computes the
  // same bits.
  const double x_mean = kernels::lane_sum(xs) / nd;
  const auto s = kernels::trend_sums(xs, t_mean, x_mean);
  if (s.stt == 0.0) return result;
  result.slope = s.stx / s.stt;
  result.intercept = x_mean - result.slope * t_mean;
  result.r_squared = s.sxx == 0.0 ? 0.0 : (s.stx * s.stx) / (s.stt * s.sxx);
  return result;
}

}  // namespace prodigy::features
