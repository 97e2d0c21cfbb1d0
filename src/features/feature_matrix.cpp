#include "features/feature_matrix.hpp"

#include "features/series_profile.hpp"
#include "tensor/ops.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <stdexcept>

namespace prodigy::features {

std::size_t FeatureDataset::anomalous_count() const noexcept {
  std::size_t count = 0;
  for (int label : labels) count += label != 0 ? 1 : 0;
  return count;
}

double FeatureDataset::anomaly_ratio() const noexcept {
  return labels.empty()
             ? 0.0
             : static_cast<double>(anomalous_count()) / static_cast<double>(labels.size());
}

FeatureDataset FeatureDataset::select_rows(
    const std::vector<std::size_t>& indices) const {
  FeatureDataset out;
  out.X = X.select_rows(indices);
  out.feature_names = feature_names;
  out.labels.reserve(indices.size());
  out.meta.reserve(indices.size());
  for (const auto i : indices) {
    out.labels.push_back(labels.at(i));
    out.meta.push_back(meta.at(i));
  }
  return out;
}

FeatureDataset FeatureDataset::select_columns(
    const std::vector<std::size_t>& indices) const {
  FeatureDataset out;
  out.X = X.select_columns(indices);
  out.labels = labels;
  out.meta = meta;
  out.feature_names.reserve(indices.size());
  for (const auto i : indices) out.feature_names.push_back(feature_names.at(i));
  return out;
}

std::vector<std::string> feature_column_names(
    const std::vector<std::string>& metric_names) {
  const auto& registry = feature_registry();
  std::vector<std::string> names;
  names.reserve(metric_names.size() * registry.size());
  for (const auto& metric : metric_names) {
    for (const auto& def : registry) {
      names.push_back(metric + "::" + def.name);
    }
  }
  return names;
}

std::vector<double> extract_node_features(const tensor::Matrix& values) {
  return extract_node_features(values, FeaturePlan{});
}

std::vector<double> extract_node_features(const tensor::Matrix& values,
                                          const FeaturePlan& plan) {
  util::StageTimer stage("features.extract");
  const std::size_t metrics = values.cols();
  const std::size_t rows = values.rows();
  const std::size_t per_metric = features_per_metric();
  std::vector<double> features(metrics * per_metric, 0.0);

  // Column-major extraction: gather each metric's series once, then run the
  // grouped registry over it, writing features in place.  Metrics are
  // independent -> parallel; each worker keeps a thread-local scratch so the
  // gather/sort/FFT buffers are allocated once per thread, not per metric.
  util::parallel_for(0, metrics, [&](std::size_t m) {
    const MetricPlan& metric_plan = plan.metric(m);
    if (!metric_plan.any) return;  // its slots stay 0.0
    thread_local FeatureScratch scratch;
    scratch.column.resize(rows);
    for (std::size_t t = 0; t < rows; ++t) scratch.column[t] = values(t, m);
    compute_all_features(
        scratch.column,
        std::span<double>(features.data() + m * per_metric, per_metric),
        scratch, metric_plan);
  });
  return features;
}

FeatureDataset concat(const FeatureDataset& a, const FeatureDataset& b) {
  if (a.size() == 0) return b;
  if (b.size() == 0) return a;
  if (a.feature_names != b.feature_names) {
    throw std::invalid_argument("concat: feature columns differ");
  }
  FeatureDataset out;
  out.X = tensor::vstack(a.X, b.X);
  out.feature_names = a.feature_names;
  out.labels = a.labels;
  out.labels.insert(out.labels.end(), b.labels.begin(), b.labels.end());
  out.meta = a.meta;
  out.meta.insert(out.meta.end(), b.meta.begin(), b.meta.end());
  return out;
}

}  // namespace prodigy::features
