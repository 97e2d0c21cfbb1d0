// Shared fixtures: tiny synthetic datasets that are fast to build on one
// core but still exercise the full pipeline.
#pragma once

#include "features/feature_matrix.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace prodigy::testing {

/// Same shape and the same bits in every element, NaN payloads included
/// (EXPECT_EQ on doubles rejects NaN == NaN).
inline ::testing::AssertionResult bitwise_equal(const tensor::Matrix& a,
                                                const tensor::Matrix& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << a.shape_string() << " vs " << b.shape_string();
  }
  if (a.size() > 0 && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "element bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Gaussian blob dataset: healthy points around the origin, anomalies offset
/// by `shift` on every axis.  Returns (X, labels).
inline std::pair<tensor::Matrix, std::vector<int>> blob_dataset(
    std::size_t healthy, std::size_t anomalous, std::size_t dims, double shift,
    std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix X(healthy + anomalous, dims);
  std::vector<int> labels(healthy + anomalous, 0);
  for (std::size_t r = 0; r < healthy + anomalous; ++r) {
    const bool anomaly = r >= healthy;
    labels[r] = anomaly ? 1 : 0;
    for (std::size_t c = 0; c < dims; ++c) {
      X(r, c) = rng.gaussian(anomaly ? shift : 0.0, 1.0);
    }
  }
  return {std::move(X), std::move(labels)};
}

/// Wraps a blob dataset into a FeatureDataset with synthetic column names of
/// the "<Metric>::<sampler>::<feature>" form (two features per metric).
inline features::FeatureDataset blob_feature_dataset(std::size_t healthy,
                                                     std::size_t anomalous,
                                                     std::size_t dims, double shift,
                                                     std::uint64_t seed) {
  auto [X, labels] = blob_dataset(healthy, anomalous, dims, shift, seed);
  features::FeatureDataset dataset;
  dataset.X = std::move(X);
  dataset.labels = std::move(labels);
  dataset.meta.resize(dataset.labels.size());
  for (std::size_t i = 0; i < dataset.meta.size(); ++i) {
    dataset.meta[i].job_id = static_cast<std::int64_t>(i / 4);
    dataset.meta[i].component_id = static_cast<std::int64_t>(i);
    dataset.meta[i].app = "test";
    dataset.meta[i].anomaly = dataset.labels[i] ? "memleak" : "none";
  }
  dataset.feature_names.reserve(dims);
  for (std::size_t c = 0; c < dims; ++c) {
    dataset.feature_names.push_back("metric" + std::to_string(c / 2) +
                                    "::vmstat::feat" + std::to_string(c % 2));
  }
  return dataset;
}

}  // namespace prodigy::testing
