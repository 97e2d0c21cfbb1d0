#include "core/model_trainer.hpp"

#include "util/metrics.hpp"

#include <filesystem>
#include <stdexcept>

namespace prodigy::core {

namespace {
constexpr std::uint64_t kMetadataMagic = 0x50524f444d455441ULL;  // "PRODMETA"
constexpr const char* kTransformStage = "core.model_trainer.transform";
}

void DeploymentMetadata::save(util::BinaryWriter& writer) const {
  writer.write_magic(kMetadataMagic, 1);
  writer.write_string(system);
  writer.write_string_vector(feature_names);
  writer.write_u64(selected_columns.size());
  for (const auto column : selected_columns) writer.write_u64(column);
  writer.write_f64(train_anomaly_ratio);
  writer.write_u64(training_samples);
}

DeploymentMetadata DeploymentMetadata::load(util::BinaryReader& reader) {
  reader.expect_magic(kMetadataMagic, 1);
  DeploymentMetadata metadata;
  metadata.system = reader.read_string();
  metadata.feature_names = reader.read_string_vector();
  const auto count = reader.read_u64();
  reader.check_length(count, sizeof(std::uint64_t));
  metadata.selected_columns.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    metadata.selected_columns.push_back(reader.read_u64());
  }
  metadata.train_anomaly_ratio = reader.read_f64();
  metadata.training_samples = reader.read_u64();
  return metadata;
}

tensor::Matrix ModelBundle::transform_full(const tensor::Matrix& full_features) const {
  // Every streamed window passes here: the histogram is resolved once.
  static util::Histogram& histogram = util::stage_histogram(kTransformStage);
  util::StageTimer stage(histogram, kTransformStage);
  const tensor::Matrix selected = full_features.select_columns(metadata.selected_columns);
  return scaler.transform(selected);
}

std::vector<int> ModelBundle::predict_full(const tensor::Matrix& full_features) const {
  return detector.predict(transform_full(full_features));
}

std::vector<double> ModelBundle::score_full(const tensor::Matrix& full_features) const {
  return detector.score(transform_full(full_features));
}

void ModelBundle::save(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  {
    util::BinaryWriter writer(dir + "/model.bin");
    detector.save(writer);
  }
  {
    util::BinaryWriter writer(dir + "/scaler.bin");
    scaler.save(writer);
  }
  {
    util::BinaryWriter writer(dir + "/metadata.bin");
    metadata.save(writer);
  }
}

ModelBundle ModelBundle::load(const std::string& dir) {
  ModelBundle bundle;
  {
    util::BinaryReader reader(dir + "/model.bin");
    bundle.detector = ProdigyDetector::load(reader);
  }
  {
    util::BinaryReader reader(dir + "/scaler.bin");
    bundle.scaler = pipeline::Scaler::load(reader);
  }
  {
    util::BinaryReader reader(dir + "/metadata.bin");
    bundle.metadata = DeploymentMetadata::load(reader);
  }
  return bundle;
}

ModelBundle ModelTrainer::train(const features::FeatureDataset& train_data,
                                const std::vector<std::size_t>& selected_columns,
                                const std::string& system_name) const {
  if (selected_columns.empty()) {
    throw std::invalid_argument("ModelTrainer::train: no feature columns selected");
  }
  // Keep only healthy rows for scaler fitting and VAE training (§5.4.4).
  std::vector<std::size_t> healthy_rows;
  for (std::size_t i = 0; i < train_data.labels.size(); ++i) {
    if (train_data.labels[i] == 0) healthy_rows.push_back(i);
  }
  if (healthy_rows.empty()) {
    throw std::invalid_argument("ModelTrainer::train: no healthy training rows");
  }

  ModelBundle bundle;
  bundle.scaler = pipeline::Scaler(scaler_kind_);
  const tensor::Matrix healthy =
      train_data.X.select_rows(healthy_rows).select_columns(selected_columns);
  const tensor::Matrix scaled = bundle.scaler.fit_transform(healthy);

  bundle.detector = ProdigyDetector(config_);
  bundle.detector.fit_healthy(scaled);

  bundle.metadata.system = system_name;
  bundle.metadata.selected_columns = selected_columns;
  bundle.metadata.feature_names.reserve(selected_columns.size());
  for (const auto column : selected_columns) {
    bundle.metadata.feature_names.push_back(train_data.feature_names.at(column));
  }
  bundle.metadata.train_anomaly_ratio = train_data.anomaly_ratio();
  bundle.metadata.training_samples = healthy_rows.size();
  return bundle;
}

}  // namespace prodigy::core
