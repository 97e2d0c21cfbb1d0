// Assembles per-sample feature vectors: every (metric, registry feature)
// pair becomes one column, named "<metric>::<sampler>::<feature>".  One row
// per compute node per application run — the paper's definition of a sample.
#pragma once

#include "features/registry.hpp"
#include "tensor/matrix.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace prodigy::features {

/// Per-row sample identity and ground truth.
struct SampleMeta {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  std::string anomaly = "none";
};

/// A labeled feature dataset: design matrix + labels + provenance.
struct FeatureDataset {
  tensor::Matrix X;                        // (samples x features)
  std::vector<int> labels;                 // 0 healthy / 1 anomalous
  std::vector<SampleMeta> meta;            // size = rows
  std::vector<std::string> feature_names;  // size = cols

  std::size_t size() const noexcept { return labels.size(); }
  std::size_t anomalous_count() const noexcept;
  double anomaly_ratio() const noexcept;

  /// Row subset preserving labels/meta alignment.
  FeatureDataset select_rows(const std::vector<std::size_t>& indices) const;
  /// Column subset preserving feature names.
  FeatureDataset select_columns(const std::vector<std::size_t>& indices) const;
};

/// Full column names for the given metric names (catalog order x registry).
std::vector<std::string> feature_column_names(
    const std::vector<std::string>& metric_names);

/// Extracts the feature vector of one preprocessed node series; `values` is
/// (T x M) over the metric columns, NaN-free (run preprocessing first).
/// Output length = M * features_per_metric(), ordered metric-major.
std::vector<double> extract_node_features(const tensor::Matrix& values);

/// Same layout, computing only the features `plan` reads (the other slots
/// are 0.0); every planned feature is bit-identical to the full extraction.
std::vector<double> extract_node_features(const tensor::Matrix& values,
                                          const FeaturePlan& plan);

/// Concatenates datasets with identical columns (rows appended in order).
FeatureDataset concat(const FeatureDataset& a, const FeatureDataset& b);

}  // namespace prodigy::features
