// Golden parity test for the SeriesProfile grouped-extraction engine.
//
// The registry used to evaluate one closure per feature, each recomputing
// its own mean/stddev/sort/FFT/trend fit.  The grouped engine shares those
// intermediates through a SeriesProfile.  This test keeps the historical
// one-closure-per-feature registry alive as a reference oracle and asserts
// that the rewrite changed *nothing observable*: the flat feature-name
// order is identical, and every value matches to 1e-12 relative across
// random, constant, spiky, and NaN-bearing series (plus empty/short
// degenerate inputs).
#include "features/extractors.hpp"
#include "features/feature_matrix.hpp"
#include "features/fft.hpp"
#include "features/kernels.hpp"
#include "features/registry.hpp"
#include "features/series_profile.hpp"
#include "tensor/stats.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace prodigy::features {
namespace {

using OracleFn = std::function<double(std::span<const double>)>;

struct OracleDef {
  std::string name;
  OracleFn fn;
};

/// Historical two-pass approximate_entropy, inlined verbatim from the
/// pre-rewrite extractors.cpp so the oracle stays independent of the
/// production single-sweep implementation (which was rewritten in place).
double oracle_approximate_entropy(std::span<const double> xs, std::size_t m,
                                  double r_frac) {
  constexpr std::size_t kMaxPoints = 256;  // O(n^2) cost control
  std::vector<double> series;
  if (xs.size() > kMaxPoints) {
    series.reserve(kMaxPoints);
    const double stride = static_cast<double>(xs.size()) / kMaxPoints;
    for (std::size_t i = 0; i < kMaxPoints; ++i) {
      series.push_back(xs[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
    }
  } else {
    series.assign(xs.begin(), xs.end());
  }
  const std::size_t n = series.size();
  if (n < m + 2) return 0.0;
  const double r = r_frac * tensor::stddev(series);
  if (r == 0.0) return 0.0;

  auto phi = [&](std::size_t dim) {
    const std::size_t count = n - dim + 1;
    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t matches = 0;
      for (std::size_t j = 0; j < count; ++j) {
        bool match = true;
        for (std::size_t k = 0; k < dim && match; ++k) {
          if (std::abs(series[i + k] - series[j + k]) > r) match = false;
        }
        if (match) ++matches;
      }
      total += std::log(static_cast<double>(matches) / static_cast<double>(count));
    }
    return total / static_cast<double>(count);
  };

  return std::abs(phi(m) - phi(m + 1));
}

/// The pre-rewrite registry, verbatim: one independent closure per feature,
/// each calling the standalone extractors that recompute every intermediate.
std::vector<OracleDef> build_oracle_registry() {
  std::vector<OracleDef> defs;
  auto add = [&defs](std::string name, OracleFn fn) {
    defs.push_back({std::move(name), std::move(fn)});
  };

  add("sum", [](auto xs) { return tensor::sum(xs); });
  add("mean", [](auto xs) { return tensor::mean(xs); });
  add("median", [](auto xs) { return tensor::median(xs); });
  add("minimum", [](auto xs) { return tensor::min_value(xs); });
  add("maximum", [](auto xs) { return tensor::max_value(xs); });
  add("standard_deviation", [](auto xs) { return tensor::stddev(xs); });
  add("variance", [](auto xs) { return tensor::variance(xs); });
  add("skewness", [](auto xs) { return tensor::skewness(xs); });
  add("kurtosis", [](auto xs) { return tensor::kurtosis(xs); });
  add("range", [](auto xs) { return value_range(xs); });
  add("interquartile_range", [](auto xs) { return interquartile_range(xs); });
  add("variation_coefficient", [](auto xs) { return variation_coefficient(xs); });
  add("root_mean_square", [](auto xs) { return root_mean_square(xs); });
  add("abs_energy", [](auto xs) { return abs_energy(xs); });

  for (const double q : {0.05, 0.1, 0.25, 0.75, 0.9, 0.95}) {
    add("quantile_q" + std::to_string(static_cast<int>(q * 100)),
        [q](auto xs) { return tensor::quantile(xs, q); });
  }

  add("mean_abs_change", [](auto xs) { return mean_abs_change(xs); });
  add("mean_change", [](auto xs) { return mean_change(xs); });
  add("absolute_sum_of_changes", [](auto xs) { return absolute_sum_of_changes(xs); });
  add("mean_second_derivative_central",
      [](auto xs) { return mean_second_derivative_central(xs); });

  add("first_location_of_maximum", [](auto xs) { return first_location_of_maximum(xs); });
  add("last_location_of_maximum", [](auto xs) { return last_location_of_maximum(xs); });
  add("first_location_of_minimum", [](auto xs) { return first_location_of_minimum(xs); });
  add("last_location_of_minimum", [](auto xs) { return last_location_of_minimum(xs); });

  add("count_above_mean", [](auto xs) { return count_above_mean(xs); });
  add("count_below_mean", [](auto xs) { return count_below_mean(xs); });
  add("longest_strike_above_mean", [](auto xs) { return longest_strike_above_mean(xs); });
  add("longest_strike_below_mean", [](auto xs) { return longest_strike_below_mean(xs); });
  add("mean_crossing_rate", [](auto xs) { return mean_crossing_rate(xs); });
  for (const std::size_t support : {1u, 3u, 5u}) {
    add("number_peaks_support_" + std::to_string(support),
        [support](auto xs) { return number_peaks(xs, support); });
  }
  for (const double r : {1.0, 2.0, 3.0}) {
    add("ratio_beyond_" + std::to_string(static_cast<int>(r)) + "_sigma",
        [r](auto xs) { return ratio_beyond_r_sigma(xs, r); });
  }

  for (const std::size_t lag : {1u, 2u, 5u, 10u, 20u}) {
    add("autocorrelation_lag_" + std::to_string(lag),
        [lag](auto xs) { return tensor::autocorrelation(xs, lag); });
  }

  for (const std::size_t lag : {1u, 2u, 3u}) {
    add("c3_lag_" + std::to_string(lag), [lag](auto xs) { return c3(xs, lag); });
  }
  for (const std::size_t lag : {1u, 2u, 3u}) {
    add("time_reversal_asymmetry_lag_" + std::to_string(lag),
        [lag](auto xs) { return time_reversal_asymmetry(xs, lag); });
  }
  add("cid_ce_normalized", [](auto xs) { return cid_ce(xs, true); });
  add("cid_ce", [](auto xs) { return cid_ce(xs, false); });
  add("approximate_entropy_m2_r02",
      [](auto xs) { return oracle_approximate_entropy(xs, 2, 0.2); });
  add("binned_entropy_10", [](auto xs) { return binned_entropy(xs, 10); });
  add("benford_correlation", [](auto xs) { return benford_correlation(xs); });

  add("linear_trend_slope", [](auto xs) { return linear_trend(xs).slope; });
  add("linear_trend_intercept", [](auto xs) { return linear_trend(xs).intercept; });
  add("linear_trend_r_squared", [](auto xs) { return linear_trend(xs).r_squared; });

  add("spectral_total_power", [](auto xs) { return spectral_summary(xs).total_power; });
  add("spectral_centroid", [](auto xs) { return spectral_summary(xs).centroid; });
  add("spectral_spread", [](auto xs) { return spectral_summary(xs).spread; });
  add("spectral_entropy", [](auto xs) { return spectral_summary(xs).entropy; });
  add("spectral_peak_frequency",
      [](auto xs) { return spectral_summary(xs).peak_frequency; });
  for (int band = 0; band < 4; ++band) {
    add("spectral_band_power_" + std::to_string(band), [band](auto xs) {
      return spectral_summary(xs).band_power[band];
    });
  }

  return defs;
}

const std::vector<OracleDef>& oracle_registry() {
  static const std::vector<OracleDef> registry = build_oracle_registry();
  return registry;
}

/// The pre-rewrite compute_all_features: per-feature evaluation with the
/// same non-finite -> 0.0 clamp.
std::vector<double> oracle_all_features(std::span<const double> series) {
  std::vector<double> values;
  values.reserve(oracle_registry().size());
  for (const auto& def : oracle_registry()) {
    const double value = def.fn(series);
    values.push_back(std::isfinite(value) ? value : 0.0);
  }
  return values;
}

std::vector<double> series_random(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.gaussian(5.0, 2.0);
  return xs;
}

std::vector<double> series_constant(std::size_t n, double value) {
  return std::vector<double>(n, value);
}

std::vector<double> series_spiky(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.bernoulli(0.04) ? rng.uniform(50.0, 200.0) : rng.uniform(0.0, 1.0);
  }
  return xs;
}

std::vector<double> series_with_nans(std::size_t n, std::uint64_t seed) {
  auto xs = series_random(n, seed);
  for (std::size_t i = 0; i < n; i += 17) {
    xs[i] = std::numeric_limits<double>::quiet_NaN();
  }
  xs[n / 2] = std::numeric_limits<double>::infinity();
  return xs;
}

void expect_parity(std::span<const double> series, const std::string& label) {
  const auto expected = oracle_all_features(series);
  const auto actual = compute_all_features(series);
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::abs(expected[i]));
    EXPECT_NEAR(actual[i], expected[i], tol)
        << label << ": feature " << feature_registry()[i].name;
  }
}

TEST(FeatureParityTest, RegistryNamesAndOrderUnchanged) {
  const auto& oracle = oracle_registry();
  const auto& registry = feature_registry();
  ASSERT_EQ(registry.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(registry[i].name, oracle[i].name) << "at index " << i;
  }
}

TEST(FeatureParityTest, GroupsTileTheRegistryInOrder) {
  std::size_t next = 0;
  for (const auto& group : feature_groups()) {
    EXPECT_EQ(group.first, next) << "group " << group.name;
    EXPECT_GT(group.count, 0u) << "group " << group.name;
    for (std::size_t i = 0; i < group.count; ++i) {
      EXPECT_EQ(feature_registry()[group.first + i].group, group.name);
    }
    next = group.first + group.count;
  }
  EXPECT_EQ(next, features_per_metric());
}

TEST(FeatureParityTest, ColumnNamesUnchanged) {
  const std::vector<std::string> metrics{"cpu::user", "mem::free"};
  const auto names = feature_column_names(metrics);
  ASSERT_EQ(names.size(), 2 * oracle_registry().size());
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    for (std::size_t i = 0; i < oracle_registry().size(); ++i) {
      EXPECT_EQ(names[m * oracle_registry().size() + i],
                metrics[m] + "::" + oracle_registry()[i].name);
    }
  }
}

TEST(FeatureParityTest, RandomSeries) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    expect_parity(series_random(1024, seed), "random/seed" + std::to_string(seed));
    expect_parity(series_random(193, seed), "random_odd/seed" + std::to_string(seed));
  }
}

TEST(FeatureParityTest, ConstantSeries) {
  expect_parity(series_constant(256, 0.0), "constant_zero");
  expect_parity(series_constant(256, 3.25), "constant");
  expect_parity(series_constant(300, 1e12), "constant_huge");
  expect_parity(series_constant(1, 7.0), "single_sample");
}

TEST(FeatureParityTest, SpikySeries) {
  for (const std::uint64_t seed : {11u, 12u}) {
    expect_parity(series_spiky(1024, seed), "spiky/seed" + std::to_string(seed));
  }
}

TEST(FeatureParityTest, NaNBearingSeries) {
  // Raw (pre-preprocessing) telemetry can carry NaN/Inf; both engines must
  // degrade identically (non-finite outputs clamp to 0 on both paths).
  expect_parity(series_with_nans(512, 21), "nan_bearing");
}

TEST(FeatureParityTest, DegenerateSeries) {
  expect_parity(std::vector<double>{}, "empty");
  expect_parity(std::vector<double>{4.0, -2.0}, "two_samples");
  expect_parity(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}, "five_samples");
}

TEST(FeatureParityTest, ScratchReuseIsStateless) {
  // One scratch across different series/lengths must not leak state.
  FeatureScratch scratch;
  std::vector<double> out(features_per_metric());
  const auto long_series = series_random(2048, 31);
  const auto short_series = series_random(64, 32);
  compute_all_features(long_series, out, scratch);
  compute_all_features(short_series, out, scratch);
  const auto fresh = compute_all_features(short_series);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], fresh[i]) << feature_registry()[i].name;
  }
}

TEST(FeatureParityTest, RejectsWrongOutputSize) {
  FeatureScratch scratch;
  std::vector<double> out(features_per_metric() + 1);
  const auto xs = series_random(32, 5);
  EXPECT_THROW(compute_all_features(xs, out, scratch), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SIMD-vs-scalar kernel sweeps.
//
// Every kernel in features/kernels.cpp promises bit-identical results
// between its vector path and its scalar oracle (fixed-lane reduction DAG
// for floating point, order-invariant tallies for integers).  These sweeps
// enforce that promise with EXPECT_EQ on the raw bit patterns across
// ragged lengths (vector-width remainders), constant/spiky/NaN-bearing
// data, and the dispatch seam itself.  Under -DPRODIGY_NO_SIMD the vector
// entry points compile to the scalar loops and the sweeps pin the fallback.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Lengths straddling every lane boundary the kernels care about: empty,
/// sub-lane, one lane +/- 1, several lanes, and large odd sizes.
const std::vector<std::size_t>& sweep_lengths() {
  static const std::vector<std::size_t> lens{
      0, 1, 2, 3, 5, 7, 15, 16, 17, 31, 32, 33,
      63, 64, 65, 255, 256, 257, 1000, 1023, 1024, 1025};
  return lens;
}

std::vector<std::vector<double>> sweep_datasets(std::size_t n,
                                                bool include_nonfinite) {
  std::vector<std::vector<double>> sets;
  sets.push_back(series_random(n, 0x5eed + n));
  sets.push_back(series_constant(n, 3.25));
  sets.push_back(series_spiky(n, 0xab + n));
  if (include_nonfinite && n >= 2) sets.push_back(series_with_nans(n, n));
  return sets;
}

TEST(FeatureKernelTest, FloatReductionsMatchScalarBitwise) {
  for (const std::size_t n : sweep_lengths()) {
    for (const auto& xs : sweep_datasets(n, /*include_nonfinite=*/true)) {
      const double mean = n == 0 ? 0.0 : kernels::lane_sum_scalar(xs) /
                                             static_cast<double>(n);
      const double scale = 1.0 / static_cast<double>(std::max<std::size_t>(
                                     1, n > 0 ? n - 1 : 1));
      SCOPED_TRACE("n=" + std::to_string(n));

      const auto se = kernels::sum_energy(xs);
      const auto se_s = kernels::sum_energy_scalar(xs);
      EXPECT_EQ(bits(se.sum), bits(se_s.sum));
      EXPECT_EQ(bits(se.energy), bits(se_s.energy));

      EXPECT_EQ(bits(kernels::lane_sum(xs)), bits(kernels::lane_sum_scalar(xs)));
      EXPECT_EQ(bits(kernels::freq_weighted_sum(xs, scale)),
                bits(kernels::freq_weighted_sum_scalar(xs, scale)));
      EXPECT_EQ(bits(kernels::freq_spread_sum(xs, scale, 0.37)),
                bits(kernels::freq_spread_sum_scalar(xs, scale, 0.37)));
      EXPECT_EQ(bits(kernels::centered_sq_sum(xs, mean)),
                bits(kernels::centered_sq_sum_scalar(xs, mean)));
      EXPECT_EQ(bits(kernels::abs_change_sum(xs)),
                bits(kernels::abs_change_sum_scalar(xs)));
      EXPECT_EQ(bits(kernels::sq_change_sum(xs)),
                bits(kernels::sq_change_sum_scalar(xs)));
      EXPECT_EQ(bits(kernels::sq_zchange_sum(xs, mean, 1.7)),
                bits(kernels::sq_zchange_sum_scalar(xs, mean, 1.7)));
      EXPECT_EQ(bits(kernels::second_derivative_sum(xs)),
                bits(kernels::second_derivative_sum_scalar(xs)));

      const auto zm = kernels::zmoment_sums(xs, mean, 1.7);
      const auto zm_s = kernels::zmoment_sums_scalar(xs, mean, 1.7);
      EXPECT_EQ(bits(zm.z3), bits(zm_s.z3));
      EXPECT_EQ(bits(zm.z4), bits(zm_s.z4));

      const double t_mean = (static_cast<double>(n) - 1.0) / 2.0;
      const auto tr = kernels::trend_sums(xs, t_mean, mean);
      const auto tr_s = kernels::trend_sums_scalar(xs, t_mean, mean);
      EXPECT_EQ(bits(tr.stx), bits(tr_s.stx));
      EXPECT_EQ(bits(tr.stt), bits(tr_s.stt));
      EXPECT_EQ(bits(tr.sxx), bits(tr_s.sxx));

      for (const std::size_t lag : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
        if (n > lag) {
          EXPECT_EQ(bits(kernels::centered_lag_mac(xs, mean, lag)),
                    bits(kernels::centered_lag_mac_scalar(xs, mean, lag)));
        }
        if (n >= 2 * lag + 1) {
          const auto c3 = kernels::c3_tr_sums(xs, lag);
          const auto c3_s = kernels::c3_tr_sums_scalar(xs, lag);
          EXPECT_EQ(bits(c3.c3), bits(c3_s.c3));
          EXPECT_EQ(bits(c3.tr), bits(c3_s.tr));
        }
      }
    }
  }
}

TEST(FeatureKernelTest, IntegerTalliesMatchScalar) {
  for (const std::size_t n : sweep_lengths()) {
    for (const auto& xs : sweep_datasets(n, /*include_nonfinite=*/true)) {
      const double mean = n == 0 ? 0.0 : kernels::lane_sum_scalar(xs) /
                                             static_cast<double>(n);
      SCOPED_TRACE("n=" + std::to_string(n));

      const auto rs = kernels::run_stats(xs, mean);
      const auto rs_s = kernels::run_stats_scalar(xs, mean);
      EXPECT_EQ(rs.count_above, rs_s.count_above);
      EXPECT_EQ(rs.count_below, rs_s.count_below);
      EXPECT_EQ(rs.longest_above, rs_s.longest_above);
      EXPECT_EQ(rs.longest_below, rs_s.longest_below);
      EXPECT_EQ(rs.crossings, rs_s.crossings);

      EXPECT_EQ(kernels::count_beyond(xs, mean, 1.5),
                kernels::count_beyond_scalar(xs, mean, 1.5));
    }
    std::vector<std::uint8_t> flags(n);
    for (std::size_t i = 0; i < n; ++i) {
      flags[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
    }
    for (const std::uint8_t bit : {std::uint8_t{1}, std::uint8_t{2}}) {
      EXPECT_EQ(kernels::count_flag_bits(flags, bit),
                kernels::count_flag_bits_scalar(flags, bit))
          << "n=" << n;
    }
  }
}

TEST(FeatureKernelTest, ApEnMatchCountsMatchScalar) {
  kernels::ApEnScratch scratch;
  kernels::ApEnScratch scratch_s;
  for (const std::size_t n : sweep_lengths()) {
    // Finite series only: approximate_entropy short-circuits non-finite r
    // before the kernel ever runs (the header documents the precondition).
    for (const auto& xs : sweep_datasets(n, /*include_nonfinite=*/false)) {
      for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}}) {
        if (n < m + 2) continue;
        const double r = 0.2 * tensor::stddev(xs);  // 0 for constant data
        const std::size_t count_lo = n - m + 1;
        std::vector<std::uint32_t> lo(count_lo, 1), lo_s(count_lo, 1);
        std::vector<std::uint32_t> hi(count_lo - 1, 1), hi_s(count_lo - 1, 1);
        kernels::apen_match_counts(xs, m, r, lo, hi, scratch);
        kernels::apen_match_counts_scalar(xs, m, r, lo_s, hi_s, scratch_s);
        EXPECT_EQ(lo, lo_s) << "n=" << n << " m=" << m;
        EXPECT_EQ(hi, hi_s) << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(FeatureKernelTest, ApEnOrderedMatchesScalar) {
  // The caller-ordered entry point (the incremental engine's path) must
  // give the scalar oracle's counts for any valid dim-1 order: std::sort's,
  // and the same order with every run of equal values reversed (ties carry
  // no order the counts could depend on).
  kernels::ApEnScratch scratch;
  kernels::ApEnScratch scratch_s;
  for (const std::size_t n : sweep_lengths()) {
    for (const auto& xs : sweep_datasets(n, /*include_nonfinite=*/false)) {
      for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}}) {
        if (n < m + 2) continue;
        const double r = 0.2 * tensor::stddev(xs);
        const std::size_t count_lo = n - m + 1;
        std::vector<std::uint32_t> lo_s(count_lo, 1), hi_s(count_lo - 1, 1);
        kernels::apen_match_counts_scalar(xs, m, r, lo_s, hi_s, scratch_s);

        std::vector<std::pair<double, std::uint32_t>> order(count_lo);
        for (std::size_t i = 0; i < count_lo; ++i) {
          order[i] = {xs[i], static_cast<std::uint32_t>(i)};
        }
        std::sort(order.begin(), order.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        auto reversed_ties = order;
        for (std::size_t a = 0; a < count_lo;) {
          std::size_t b = a + 1;
          while (b < count_lo && reversed_ties[b].first == reversed_ties[a].first) {
            ++b;
          }
          std::reverse(reversed_ties.begin() + static_cast<std::ptrdiff_t>(a),
                       reversed_ties.begin() + static_cast<std::ptrdiff_t>(b));
          a = b;
        }
        for (const auto* ord : {&order, &reversed_ties}) {
          std::vector<double> values(count_lo);
          std::vector<std::uint32_t> index(count_lo);
          for (std::size_t b = 0; b < count_lo; ++b) {
            values[b] = (*ord)[b].first;
            index[b] = (*ord)[b].second;
          }
          std::vector<std::uint32_t> lo(count_lo, 1), hi(count_lo - 1, 1);
          kernels::apen_match_counts_ordered(xs, m, r, values, index, lo, hi,
                                             scratch);
          const char* which = ord == &order ? "sorted" : "ties reversed";
          EXPECT_EQ(lo, lo_s) << "n=" << n << " m=" << m << " " << which;
          EXPECT_EQ(hi, hi_s) << "n=" << n << " m=" << m << " " << which;
        }
      }
    }
  }
  // A wrong-length order is refused rather than read out of bounds.
  const auto xs = series_random(32, 3);
  std::vector<std::uint32_t> lo(31, 1), hi(30, 1);
  const std::vector<double> values(30, 0.0);
  const std::vector<std::uint32_t> index(30, 0);
  EXPECT_THROW(kernels::apen_match_counts_ordered(xs, 2, 0.1, values, index,
                                                  lo, hi, scratch),
               std::invalid_argument);
}

TEST(FeatureKernelTest, BinnedEntropySortedMatchesScan) {
  // The sorted-path replacement must agree exactly with the historical
  // O(n) scan whenever the profile routes to it (finite data, finite
  // extrema): identical bin counts, identical fold order, identical bits.
  for (const std::size_t n : sweep_lengths()) {
    for (const auto& xs : sweep_datasets(n, /*include_nonfinite=*/false)) {
      if (xs.empty()) continue;
      auto sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const double lo = sorted.front();
      const double hi = sorted.back();
      for (const std::size_t bins : {std::size_t{1}, std::size_t{3},
                                     std::size_t{10}, std::size_t{16}}) {
        EXPECT_EQ(bits(binned_entropy_sorted(sorted, bins, lo, hi)),
                  bits(binned_entropy(xs, bins, lo, hi)))
            << "n=" << n << " bins=" << bins;
      }
    }
  }
}

struct ScalarKernelGuard {
  explicit ScalarKernelGuard(bool on) { kernels::force_scalar(on); }
  ~ScalarKernelGuard() { kernels::force_scalar(false); }
};

TEST(FeatureKernelTest, ForceScalarPipelineBitEqual) {
  // The whole-engine version of the per-kernel sweeps: flipping the
  // dispatch seam must not change a single output bit for any feature on
  // any series class, because every kernel's scalar oracle evaluates the
  // same arithmetic DAG as its vector path.
  const std::vector<std::vector<double>> series{
      series_random(1024, 7), series_random(193, 8), series_spiky(1024, 9),
      series_with_nans(512, 10), series_constant(256, 3.25),
      std::vector<double>{}, std::vector<double>{4.0, -2.0}};
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::vector<double> vec_out;
    std::vector<double> scalar_out;
    {
      ScalarKernelGuard guard(false);
      vec_out = compute_all_features(series[s]);
    }
    {
      ScalarKernelGuard guard(true);
      scalar_out = compute_all_features(series[s]);
    }
    ASSERT_EQ(vec_out.size(), scalar_out.size());
    for (std::size_t i = 0; i < vec_out.size(); ++i) {
      EXPECT_EQ(bits(vec_out[i]), bits(scalar_out[i]))
          << "series " << s << ": " << feature_registry()[i].name;
    }
  }
}

}  // namespace
}  // namespace prodigy::features
