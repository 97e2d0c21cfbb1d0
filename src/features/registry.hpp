// The feature registry: the named, parameterized catalog of per-series
// extractors applied to every metric (TSFRESH computes 794 features from 63
// characterization methods; this registry instantiates our extractor family
// into ~70 named features per metric).
//
// Features are organized as *groups* that share one SeriesProfile: a group
// emits several named features (e.g. "spectral" emits nine from one FFT)
// instead of the historical one-closure-per-feature design, which invoked
// the full FFT nine times per series.  The flat name order exposed by
// feature_registry() is unchanged, and per-feature values are bit-identical
// to the per-feature implementations (tests/feature_parity_test.cpp keeps
// those as reference oracles).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace prodigy::features {

struct SeriesProfile;
struct FeatureScratch;

struct FeatureDef {
  std::string name;   // e.g. "autocorrelation_lag_5"
  std::string group;  // owning group, e.g. "autocorrelation"
};

/// A batch of features computed together from one shared SeriesProfile.
struct FeatureGroup {
  std::string name;
  std::size_t first = 0;  // offset of the group's first feature in flat order
  std::size_t count = 0;  // number of features the group emits
  /// Writes `count` raw values to `out`; non-finite clamping happens in
  /// compute_all_features so group functions stay pure.
  std::function<void(const SeriesProfile&, double* out)> fn;
};

/// The fixed ordered registry (flat feature order; built once).
const std::vector<FeatureDef>& feature_registry();

/// The grouped extractors, in flat-order-covering sequence: group g spans
/// features [first, first + count) and groups tile the registry in order.
const std::vector<FeatureGroup>& feature_groups();

/// Number of features computed per metric.
std::size_t features_per_metric();

/// The registry features of one metric that a consumer reads, with the
/// profile-level work they need.  Extraction under a plan writes every
/// feature the plan reads bit-identically to full extraction and 0.0 in
/// every other slot, skipping the groups (and the power spectrum, the
/// spectral entropy pass, approximate entropy's template order) that
/// only unread features need.
struct MetricPlan {
  std::vector<std::uint8_t> reads;  // per flat registry index; empty = all
  bool any = true;                  // reads some feature
  bool spectrum = true;             // reads some spectral_* feature
  bool spectral_entropy = true;     // reads spectral_entropy
  bool approximate_entropy = true;  // reads approximate_entropy_m2_r02

  bool wants(std::size_t feature) const noexcept {
    return reads.empty() || reads[feature] != 0;
  }
  /// Whether any of features [first, first + count) is read.
  bool wants_any(std::size_t first, std::size_t count) const noexcept;
  /// The plan that reads every feature.
  static const MetricPlan& all();
};

/// Per-metric plans for one node's columns, derived from the metric-major
/// column indices a model reads: column c is registry feature
/// c % features_per_metric() of metric c / features_per_metric() (the
/// extract_node_features layout).  The default plan reads everything.
/// Copies share one immutable table.
class FeaturePlan {
 public:
  FeaturePlan() = default;
  /// Reads exactly `columns`; metrics no column names read nothing.
  explicit FeaturePlan(std::span<const std::size_t> columns);

  const MetricPlan& metric(std::size_t m) const noexcept;

 private:
  // (metric, plan) for each metric some column names, ascending by metric.
  std::shared_ptr<const std::vector<std::pair<std::size_t, MetricPlan>>>
      metrics_;
};

/// Evaluates every registry feature on one series, in registry order.
/// Non-finite results are clamped to 0.0 so the matrix stays NaN-free.
std::vector<double> compute_all_features(std::span<const double> series);

/// Hot-path variant: writes features_per_metric() values into `out` and
/// reuses `scratch` for the profile's sorted/FFT buffers (no allocations
/// once the scratch has warmed up).  Only the features `plan` reads are
/// computed; the other slots are written as 0.0.
void compute_all_features(std::span<const double> series, std::span<double> out,
                          FeatureScratch& scratch,
                          const MetricPlan& plan = MetricPlan::all());

/// Evaluates the grouped extractors on an externally-built profile (the
/// incremental extractor assembles its SeriesProfile from rolling state
/// instead of compute_series_profile).  Applies the same non-finite -> 0
/// clamp as compute_all_features; groups with no feature `plan` reads are
/// skipped, and every slot `plan` does not read is written as 0.0.
void compute_features_from_profile(const SeriesProfile& profile,
                                   std::span<double> out,
                                   const MetricPlan& plan = MetricPlan::all());

}  // namespace prodigy::features
