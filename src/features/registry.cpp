#include "features/registry.hpp"

#include "features/extractors.hpp"
#include "features/fft.hpp"
#include "features/kernels.hpp"
#include "features/series_profile.hpp"
#include "tensor/stats.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace prodigy::features {

namespace {

double relative(std::size_t index, std::size_t n) noexcept {
  return n == 0 ? 0.0 : static_cast<double>(index) / static_cast<double>(n);
}

/// Order statistics over a series containing NaN are NaN (the profile's
/// sorted view excludes NaNs, so reading it directly would silently compute
/// quantiles of the truncated finite subset instead).  The final non-finite
/// clamp in compute_all_features turns the NaN into the documented 0.0.
double quantile_or_nan(const SeriesProfile& p, double q) noexcept {
  if (p.nan_count > 0) return std::numeric_limits<double>::quiet_NaN();
  return tensor::quantile_sorted(p.sorted, q);
}

struct GroupBuilder {
  std::vector<FeatureGroup> groups;
  std::vector<FeatureDef> defs;

  void add(std::string group_name, std::vector<std::string> names,
           std::function<void(const SeriesProfile&, double*)> fn) {
    FeatureGroup group;
    group.name = group_name;
    group.first = defs.size();
    group.count = names.size();
    group.fn = std::move(fn);
    for (auto& name : names) defs.push_back({std::move(name), group_name});
    groups.push_back(std::move(group));
  }
};

GroupBuilder build_groups() {
  GroupBuilder b;

  // Descriptive statistics: moments, order statistics, energy.  One sorted
  // copy serves median/IQR; mean/stddev are computed once in the profile.
  b.add("descriptive",
        {"sum", "mean", "median", "minimum", "maximum", "standard_deviation",
         "variance", "skewness", "kurtosis", "range", "interquartile_range",
         "variation_coefficient", "root_mean_square", "abs_energy"},
        [](const SeriesProfile& p, double* out) {
          const auto n = p.n;
          out[0] = p.sum;
          out[1] = p.mean;
          out[2] = quantile_or_nan(p, 0.5);
          out[3] = p.min;
          out[4] = p.max;
          out[5] = p.stddev;
          out[6] = p.variance;
          // One fused z-moment pass replaces the separate skewness and
          // kurtosis loops; the guards replicate tensor::skewness (n >= 3)
          // and tensor::kurtosis (n >= 4, excess -3) exactly.
          out[7] = 0.0;
          out[8] = 0.0;
          if (n >= 3 && p.stddev != 0.0) {
            const auto zm = kernels::zmoment_sums(p.xs, p.mean, p.stddev);
            out[7] = zm.z3 / static_cast<double>(n);
            if (n >= 4) out[8] = zm.z4 / static_cast<double>(n) - 3.0;
          }
          out[9] = n == 0 ? 0.0 : p.max - p.min;
          out[10] = n == 0 ? 0.0
                           : quantile_or_nan(p, 0.75) - quantile_or_nan(p, 0.25);
          out[11] = variation_coefficient(p.mean, p.stddev);
          out[12] = n == 0 ? 0.0
                           : std::sqrt(p.abs_energy / static_cast<double>(n));
          out[13] = p.abs_energy;
        });

  {
    static constexpr double kQuantiles[] = {0.05, 0.1, 0.25, 0.75, 0.9, 0.95};
    std::vector<std::string> names;
    for (const double q : kQuantiles) {
      names.push_back("quantile_q" + std::to_string(static_cast<int>(q * 100)));
    }
    b.add("quantiles", std::move(names), [](const SeriesProfile& p, double* out) {
      for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
        out[i] = quantile_or_nan(p, kQuantiles[i]);
      }
    });
  }

  // Change statistics; |dx| is summed once in the profile.
  b.add("changes",
        {"mean_abs_change", "mean_change", "absolute_sum_of_changes",
         "mean_second_derivative_central"},
        [](const SeriesProfile& p, double* out) {
          const auto n = p.n;
          out[0] = n < 2 ? 0.0
                         : p.abs_change_sum / static_cast<double>(n - 1);
          out[1] = n < 2 ? 0.0
                         : (p.xs.back() - p.xs.front()) /
                               static_cast<double>(n - 1);
          out[2] = n < 2 ? 0.0 : p.abs_change_sum;
          out[3] = n < 3 ? 0.0
                         : kernels::second_derivative_sum(p.xs) /
                               static_cast<double>(n - 2);
        });

  b.add("extrema_location",
        {"first_location_of_maximum", "last_location_of_maximum",
         "first_location_of_minimum", "last_location_of_minimum"},
        [](const SeriesProfile& p, double* out) {
          out[0] = relative(p.first_max, p.n);
          out[1] = relative(p.last_max, p.n);
          out[2] = relative(p.first_min, p.n);
          out[3] = relative(p.last_min, p.n);
        });

  // Counts, strikes, crossings relative to the mean: one profile pass.
  b.add("mean_runs",
        {"count_above_mean", "count_below_mean", "longest_strike_above_mean",
         "longest_strike_below_mean", "mean_crossing_rate"},
        [](const SeriesProfile& p, double* out) {
          const double n = static_cast<double>(p.n);
          out[0] = p.n == 0 ? 0.0 : static_cast<double>(p.count_above) / n;
          out[1] = p.n == 0 ? 0.0 : static_cast<double>(p.count_below) / n;
          out[2] = p.n == 0 ? 0.0 : static_cast<double>(p.longest_above) / n;
          out[3] = p.n == 0 ? 0.0 : static_cast<double>(p.longest_below) / n;
          out[4] = p.n < 2 ? 0.0
                           : static_cast<double>(p.crossings) / (n - 1.0);
        });

  {
    std::vector<std::string> names;
    for (const auto support : kPeakSupports) {
      names.push_back("number_peaks_support_" + std::to_string(support));
    }
    b.add("peaks", std::move(names), [](const SeriesProfile& p, double* out) {
      if (p.rolling && p.rolling->has_peaks) {
        for (std::size_t i = 0; i < kPeakSupportCount; ++i) {
          out[i] = p.rolling->peaks[i];
        }
        return;
      }
      for (std::size_t i = 0; i < kPeakSupportCount; ++i) {
        out[i] = number_peaks(p.xs, kPeakSupports[i]);
      }
    });
  }

  {
    static constexpr double kSigmas[] = {1.0, 2.0, 3.0};
    std::vector<std::string> names;
    for (const double r : kSigmas) {
      names.push_back("ratio_beyond_" + std::to_string(static_cast<int>(r)) +
                      "_sigma");
    }
    b.add("sigma_ratios", std::move(names),
          [](const SeriesProfile& p, double* out) {
            // Same guards and threshold expression (r * stddev, rounded
            // once) as ratio_beyond_r_sigma; the count is an integer, so
            // the vectorized tally is bit-exact.
            for (std::size_t i = 0; i < std::size(kSigmas); ++i) {
              if (p.n == 0 || p.stddev == 0.0) {
                out[i] = 0.0;
                continue;
              }
              const std::size_t count = kernels::count_beyond(
                  p.xs, p.mean, kSigmas[i] * p.stddev);
              out[i] = static_cast<double>(count) / static_cast<double>(p.n);
            }
          });
  }

  {
    static constexpr std::size_t kLags[] = {1, 2, 5, 10, 20};
    std::vector<std::string> names;
    for (const auto lag : kLags) {
      names.push_back("autocorrelation_lag_" + std::to_string(lag));
    }
    b.add("autocorrelation", std::move(names),
          [](const SeriesProfile& p, double* out) {
            // One lane-kernel pass per lag.  The lag-offset product stream
            // stays in i-ascending order inside each lane, so the result
            // tracks the standalone tensor::autocorrelation oracle within
            // the parity tolerance (the lane tree rounds ~1 ulp apart from
            // the serial chain, same as every other kernel reduction).
            const std::size_t n = p.n;
            for (std::size_t l = 0; l < std::size(kLags); ++l) {
              const std::size_t lag = kLags[l];
              out[l] = n <= lag + 1 || p.variance == 0.0
                           ? 0.0
                           : kernels::centered_lag_mac(p.xs, p.mean, lag) /
                                 (static_cast<double>(n - lag) * p.variance);
            }
          });
  }

  b.add("nonlinearity",
        {"c3_lag_1", "c3_lag_2", "c3_lag_3", "time_reversal_asymmetry_lag_1",
         "time_reversal_asymmetry_lag_2", "time_reversal_asymmetry_lag_3",
         "cid_ce_normalized", "cid_ce"},
        [](const SeriesProfile& p, double* out) {
          for (std::size_t lag = 1; lag <= 3; ++lag) {
            // c3 and time_reversal_asymmetry share the same index window;
            // the fused kernel feeds both accumulators with the standalone
            // extractors' per-term arithmetic.
            if (p.n < 2 * lag + 1) {
              out[lag - 1] = 0.0;
              out[lag + 2] = 0.0;
              continue;
            }
            const std::size_t terms = p.n - 2 * lag;
            const auto s = kernels::c3_tr_sums(p.xs, lag);
            out[lag - 1] = s.c3 / static_cast<double>(terms);
            out[lag + 2] = s.tr / static_cast<double>(terms);
          }
          // cid_ce's guards, per-element normalization, and final sqrt,
          // with the squared-difference sums through the lane kernels.
          out[6] = p.n < 2 || p.stddev == 0.0
                       ? 0.0
                       : std::sqrt(kernels::sq_zchange_sum(p.xs, p.mean,
                                                           p.stddev));
          out[7] = p.n < 2 ? 0.0 : std::sqrt(kernels::sq_change_sum(p.xs));
        });

  b.add("entropy",
        {"approximate_entropy_m2_r02", "binned_entropy_10",
         "benford_correlation"},
        [](const SeriesProfile& p, double* out) {
          // The incremental engine supplies the template order from its
          // carried sorted window; the batch path sorts.
          out[0] = p.rolling && p.rolling->has_apen_order
                       ? approximate_entropy(p.xs, kApEnDim, 0.2,
                                             p.rolling->apen_values,
                                             p.rolling->apen_index)
                       : approximate_entropy(p.xs, kApEnDim, 0.2);
          // Clean windows take the sorted-search variant (bit-identical
          // counts); NaN/inf windows keep the historical scatter scan.
          out[1] = p.n == 0 ? 0.0
                   : p.nan_count == 0 && std::isfinite(p.min) &&
                           std::isfinite(p.max)
                       ? binned_entropy_sorted(p.sorted, 10, p.min, p.max)
                       : binned_entropy(p.xs, 10, p.min, p.max);
          out[2] = p.rolling && p.rolling->has_benford ? p.rolling->benford
                                                       : benford_correlation(p.xs);
        });

  b.add("linear_trend",
        {"linear_trend_slope", "linear_trend_intercept",
         "linear_trend_r_squared"},
        [](const SeriesProfile& p, double* out) {
          out[0] = p.trend.slope;
          out[1] = p.trend.intercept;
          out[2] = p.trend.r_squared;
        });

  b.add("spectral",
        {"spectral_total_power", "spectral_centroid", "spectral_spread",
         "spectral_entropy", "spectral_peak_frequency",
         "spectral_band_power_0", "spectral_band_power_1",
         "spectral_band_power_2", "spectral_band_power_3"},
        [](const SeriesProfile& p, double* out) {
          out[0] = p.spectral.total_power;
          out[1] = p.spectral.centroid;
          out[2] = p.spectral.spread;
          out[3] = p.spectral.entropy;
          out[4] = p.spectral.peak_frequency;
          for (int band = 0; band < 4; ++band) {
            out[5 + band] = p.spectral.band_power[band];
          }
        });

  return b;
}

const GroupBuilder& builder() {
  static const GroupBuilder instance = build_groups();
  return instance;
}

}  // namespace

const std::vector<FeatureDef>& feature_registry() { return builder().defs; }

const std::vector<FeatureGroup>& feature_groups() { return builder().groups; }

std::size_t features_per_metric() { return feature_registry().size(); }

void compute_features_from_profile(const SeriesProfile& profile,
                                   std::span<double> out) {
  if (out.size() != features_per_metric()) {
    throw std::invalid_argument(
        "compute_features_from_profile: bad output size");
  }
  for (const auto& group : feature_groups()) {
    group.fn(profile, out.data() + group.first);
  }
  for (double& value : out) {
    if (!std::isfinite(value)) value = 0.0;
  }
}

void compute_all_features(std::span<const double> series, std::span<double> out,
                          FeatureScratch& scratch) {
  const SeriesProfile profile = compute_series_profile(series, scratch);
  compute_features_from_profile(profile, out);
}

std::vector<double> compute_all_features(std::span<const double> series) {
  std::vector<double> values(features_per_metric(), 0.0);
  FeatureScratch scratch;
  compute_all_features(series, values, scratch);
  return values;
}

}  // namespace prodigy::features
