#include "pipeline/data_pipeline.hpp"

#include "telemetry/metrics.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <stdexcept>

namespace prodigy::pipeline {

std::vector<std::string> full_feature_names() {
  std::vector<std::string> metric_names;
  metric_names.reserve(telemetry::metric_count());
  for (const auto& spec : telemetry::metric_catalog()) {
    metric_names.push_back(telemetry::full_metric_name(spec));
  }
  return features::feature_column_names(metric_names);
}

std::vector<double> DataPipeline::extract(const PreparedNode& node) {
  return features::extract_node_features(node.values);
}

features::FeatureDataset DataPipeline::build_from_jobs(
    const std::vector<telemetry::JobTelemetry>& jobs,
    const PreprocessOptions& preprocess, util::ThreadPool* pool) {
  static const std::vector<telemetry::MetricKind> kinds = [] {
    std::vector<telemetry::MetricKind> out;
    for (const auto& spec : telemetry::metric_catalog()) out.push_back(spec.kind);
    return out;
  }();
  static const std::vector<std::string> metric_names = [] {
    std::vector<std::string> out;
    for (const auto& spec : telemetry::metric_catalog()) {
      out.push_back(telemetry::full_metric_name(spec));
    }
    return out;
  }();
  return build_from_jobs(jobs, metric_names, kinds, preprocess, pool);
}

features::FeatureDataset DataPipeline::build_from_jobs(
    const std::vector<telemetry::JobTelemetry>& jobs,
    const std::vector<std::string>& metric_names,
    const std::vector<telemetry::MetricKind>& kinds,
    const PreprocessOptions& preprocess, util::ThreadPool* pool) {
  if (metric_names.size() != kinds.size()) {
    throw std::invalid_argument("build_from_jobs: names/kinds size mismatch");
  }
  features::FeatureDataset dataset;
  dataset.feature_names = features::feature_column_names(metric_names);

  std::vector<const telemetry::NodeSeries*> node_list;
  for (const auto& job : jobs) {
    for (const auto& node : job.nodes) node_list.push_back(&node);
  }
  const std::size_t total_nodes = node_list.size();
  util::MetricsRegistry::global()
      .counter("prodigy_pipeline_nodes_processed_total")
      .increment(total_nodes);
  dataset.X = tensor::Matrix(total_nodes, dataset.feature_names.size());
  dataset.labels.resize(total_nodes);
  dataset.meta.resize(total_nodes);

  // Each row is preprocessed + extracted independently and written by index,
  // so fanning out over the pool keeps the dataset bit-identical to a serial
  // build no matter how many workers run.
  util::parallel_for(
      pool != nullptr ? *pool : util::ThreadPool::global(), 0, total_nodes,
      [&](std::size_t row) {
        const telemetry::NodeSeries& node = *node_list[row];
        if (node.values.cols() != metric_names.size()) {
          throw std::invalid_argument("build_from_jobs: node frame width " +
                                      std::to_string(node.values.cols()) +
                                      " != " + std::to_string(metric_names.size()) +
                                      " metric columns");
        }
        const tensor::Matrix prepared =
            preprocess_node(node.values, kinds, preprocess);
        dataset.X.set_row(row, features::extract_node_features(prepared));
        dataset.labels[row] = node.label;
        features::SampleMeta meta;
        meta.job_id = node.job_id;
        meta.component_id = node.component_id;
        meta.app = node.app;
        meta.anomaly = node.anomaly;
        dataset.meta[row] = std::move(meta);
      });
  return dataset;
}

features::FeatureDataset DataPipeline::build_dataset(
    const telemetry::DatasetSpec& spec, const PreprocessOptions& preprocess) {
  features::FeatureDataset dataset;
  dataset.feature_names = full_feature_names();
  // Node counts vary per run; over-allocate slightly so the grow path below
  // stays a rare fallback.
  const std::size_t capacity = spec.approx_samples() + spec.approx_samples() / 8 + 64;
  dataset.X = tensor::Matrix(capacity, dataset.feature_names.size());
  dataset.labels.reserve(capacity);
  dataset.meta.reserve(capacity);

  const DataGenerator generator(preprocess);
  std::size_t row = 0;
  std::size_t runs_done = 0;
  const std::size_t total_runs = telemetry::run_count(spec);

  telemetry::for_each_run(spec, [&](const telemetry::JobTelemetry& job) {
    for (const auto& node : job.nodes) {
      const PreparedNode prepared = generator.prepare_node(node);
      const auto features = extract(prepared);
      if (row >= dataset.X.rows()) {
        // approx_samples underestimated; grow by one row.
        dataset.X.append_rows(tensor::Matrix(1, dataset.X.cols()));
      }
      dataset.X.set_row(row, features);
      dataset.labels.push_back(prepared.label);
      dataset.meta.push_back(prepared.meta);
      ++row;
    }
    ++runs_done;
    if (runs_done % 50 == 0) {
      util::log_info("build_dataset[", spec.system.name, "]: ", runs_done, "/",
                     total_runs, " runs");
    }
  });

  if (row < dataset.X.rows()) dataset.X = dataset.X.slice_rows(0, row);
  return dataset;
}

}  // namespace prodigy::pipeline
