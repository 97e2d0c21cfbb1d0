// Scalar time-series characterization functions — the reproduction of the
// TSFRESH feature family used by the paper (§3.1, §4.2.1): descriptive
// statistics plus "advanced" features such as approximate entropy, power
// spectral density aggregates, the variation coefficient, C3 nonlinearity
// statistics and Benford correlation.
//
// All extractors are NaN-free total functions: they return 0.0 (or another
// documented neutral value) on degenerate inputs (empty, constant, too
// short) instead of propagating NaN into the feature matrix.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace prodigy::features {

// --- energy & change ---
double abs_energy(std::span<const double> xs) noexcept;            // sum x^2
double root_mean_square(std::span<const double> xs) noexcept;
double mean_abs_change(std::span<const double> xs) noexcept;
double mean_change(std::span<const double> xs) noexcept;
double absolute_sum_of_changes(std::span<const double> xs) noexcept;
double mean_second_derivative_central(std::span<const double> xs) noexcept;

// --- dispersion ---
/// stddev / |mean|; 0 when the mean is 0.
double variation_coefficient(std::span<const double> xs) noexcept;
/// Moment-reusing variant (the single-argument form delegates here).
double variation_coefficient(double mean, double stddev) noexcept;
double value_range(std::span<const double> xs) noexcept;  // max - min
double interquartile_range(std::span<const double> xs);

// --- shape & location ---
double first_location_of_maximum(std::span<const double> xs) noexcept;
double last_location_of_maximum(std::span<const double> xs) noexcept;
double first_location_of_minimum(std::span<const double> xs) noexcept;
double last_location_of_minimum(std::span<const double> xs) noexcept;

// --- counts & strikes ---
double count_above_mean(std::span<const double> xs) noexcept;   // ratio in [0,1]
double count_below_mean(std::span<const double> xs) noexcept;
double longest_strike_above_mean(std::span<const double> xs) noexcept;  // ratio
double longest_strike_below_mean(std::span<const double> xs) noexcept;
/// Number of mean-crossings divided by (n-1).
double mean_crossing_rate(std::span<const double> xs) noexcept;
/// Count of local maxima strictly greater than `support` neighbours each side,
/// normalized by series length.
double number_peaks(std::span<const double> xs, std::size_t support) noexcept;
/// Fraction of samples farther than r * stddev from the mean.
double ratio_beyond_r_sigma(std::span<const double> xs, double r) noexcept;
/// Moment-reusing variant (the two-argument form delegates here).
double ratio_beyond_r_sigma(std::span<const double> xs, double r, double mean,
                            double stddev) noexcept;

// --- nonlinearity & complexity ---
/// C3 statistic (Schreiber & Schmitz 1997): mean of x[i+2l]*x[i+l]*x[i].
double c3(std::span<const double> xs, std::size_t lag) noexcept;
/// Time-reversal asymmetry statistic at the given lag.
double time_reversal_asymmetry(std::span<const double> xs, std::size_t lag) noexcept;
/// Complexity-invariant distance estimate (CID-CE).
double cid_ce(std::span<const double> xs, bool normalize) noexcept;
/// Moment-reusing variant (the two-argument form delegates here); the
/// moments are only read when `normalize` is true.
double cid_ce(std::span<const double> xs, bool normalize, double mean,
              double stddev) noexcept;
/// approximate_entropy's O(n^2) cost control: longer series are subsampled
/// to this many points.
inline constexpr std::size_t kApEnMaxPoints = 256;
/// Position in an n-point series of approximate_entropy's i-th sample:
/// i itself when n <= kApEnMaxPoints, else floor(i * n / kApEnMaxPoints).
/// The one definition of the subsample, shared by every caller that maps
/// between the two index spaces.
inline std::size_t apen_sample_position(std::size_t i, std::size_t n) noexcept {
  if (n <= kApEnMaxPoints) return i;
  const double stride = static_cast<double>(n) / kApEnMaxPoints;
  return static_cast<std::size_t>(static_cast<double>(i) * stride);
}
/// Approximate entropy with embedding dimension m and tolerance r_frac * std,
/// over the (subsampled) series.
double approximate_entropy(std::span<const double> xs, std::size_t m, double r_frac);
/// The same value from a caller-supplied dim-1 template order over the
/// subsampled series s (see kernels::apen_match_counts_ordered): the values
/// s[i] of its first s.size() - m + 1 positions in ascending order, with
/// their indices i.  Skips the sort; the result is bit-identical.
double approximate_entropy(std::span<const double> xs, std::size_t m,
                           double r_frac, std::span<const double> order_values,
                           std::span<const std::uint32_t> order_index);
/// Shannon entropy of a max_bins equal-width histogram.
double binned_entropy(std::span<const double> xs, std::size_t max_bins);
/// Extrema-reusing variant (the two-argument form delegates here).
double binned_entropy(std::span<const double> xs, std::size_t max_bins,
                      double min_value, double max_value);
/// Sorted-input variant: the bin map is monotone, so bin populations come
/// from max_bins binary searches instead of an O(n) scatter pass — counts
/// (and the entropy) are bit-identical to the scan path.  Requires finite
/// ascending values and finite extrema; NaN/inf windows must use the scan.
double binned_entropy_sorted(std::span<const double> sorted,
                             std::size_t max_bins, double min_value,
                             double max_value);

// --- distributional law ---
/// Pearson correlation between the first-digit distribution of xs and the
/// Benford distribution (Hill 1995), as used by TSFRESH.
double benford_correlation(std::span<const double> xs);
/// First significant decimal digit of |x| (1..9), or 0 for zero/non-finite
/// samples (those are excluded from the Benford histogram).
int benford_first_digit(double x) noexcept;
/// Benford correlation from a first-digit histogram (counts[d-1] = samples
/// with first digit d, `counted` their total).  The span overload tallies
/// and delegates here; the incremental engine slides the counts instead.
double benford_correlation_from_counts(
    const std::array<std::uint32_t, 9>& counts, std::size_t counted);

// --- trend ---
struct LinearTrendResult {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
/// Least-squares linear fit of xs against the time index.
LinearTrendResult linear_trend(std::span<const double> xs) noexcept;

}  // namespace prodigy::features
