#include "core/model_trainer.hpp"

#include "features/chi_square.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace prodigy::core {
namespace {

ProdigyConfig fast_config() {
  ProdigyConfig config;
  config.vae.encoder_hidden = {12, 6};
  config.vae.latent_dim = 2;
  config.train.epochs = 80;
  config.train.batch_size = 32;
  config.train.learning_rate = 2e-3;
  config.train.validation_split = 0.0;
  config.train.early_stopping_patience = 0;
  return config;
}

class ModelTrainerTest : public ::testing::Test {
 protected:
  ModelTrainerTest()
      : dataset_(prodigy::testing::blob_feature_dataset(200, 25, 8, 5.0, 1)) {}

  features::FeatureDataset dataset_;
};

TEST_F(ModelTrainerTest, TrainProducesWorkingBundle) {
  const ModelTrainer trainer(fast_config());
  const std::vector<std::size_t> columns{0, 1, 2, 3, 4, 5};
  const ModelBundle bundle = trainer.train(dataset_, columns, "Eclipse");

  EXPECT_EQ(bundle.metadata.system, "Eclipse");
  EXPECT_EQ(bundle.metadata.selected_columns, columns);
  EXPECT_EQ(bundle.metadata.feature_names.size(), columns.size());
  EXPECT_EQ(bundle.metadata.training_samples, 200u);  // healthy rows only
  EXPECT_NEAR(bundle.metadata.train_anomaly_ratio, 25.0 / 225.0, 1e-9);

  // The bundle detects the shifted anomalies end-to-end from full features.
  const auto predictions = bundle.predict_full(dataset_.X);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (dataset_.labels[i] == 1 && predictions[i] == 1) ++hits;
  }
  EXPECT_GT(hits, 20u);  // most of the 25 anomalies flagged
}

// A streamed window is one score_full call on one row; the transform and
// score stages and the scored-sample counter each move once per call
// through handles resolved once, not per-window registry lookups.
TEST_F(ModelTrainerTest, EachScoreMovesItsStageMetricsOnce) {
  const ModelTrainer trainer(fast_config());
  const ModelBundle bundle = trainer.train(dataset_, {0, 1, 2, 3, 4, 5}, "Eclipse");
  auto& registry = util::MetricsRegistry::global();
  util::Histogram& transform =
      registry.histogram("prodigy_stage_core_model_trainer_transform_seconds");
  util::Histogram& score =
      registry.histogram("prodigy_stage_core_prodigy_detector_score_seconds");
  util::Counter& samples = registry.counter("prodigy_detector_samples_scored_total");
  const auto transform_before = transform.snapshot().count;
  const auto score_before = score.snapshot().count;
  const auto samples_before = samples.value();

  constexpr std::size_t kScores = 25;
  const tensor::Matrix window = dataset_.X.slice_rows(0, 1);
  for (std::size_t i = 0; i < kScores; ++i) {
    EXPECT_EQ(bundle.score_full(window).size(), 1u);
  }
  EXPECT_EQ(transform.snapshot().count - transform_before, kScores);
  EXPECT_EQ(score.snapshot().count - score_before, kScores);
  EXPECT_EQ(samples.value() - samples_before, kScores);
}

TEST_F(ModelTrainerTest, TrainValidatesInputs) {
  const ModelTrainer trainer(fast_config());
  EXPECT_THROW(trainer.train(dataset_, {}, "X"), std::invalid_argument);

  features::FeatureDataset all_anomalous = dataset_;
  std::fill(all_anomalous.labels.begin(), all_anomalous.labels.end(), 1);
  EXPECT_THROW(trainer.train(all_anomalous, {0, 1}, "X"), std::invalid_argument);
}

TEST_F(ModelTrainerTest, BundleSaveLoadRoundTrip) {
  const ModelTrainer trainer(fast_config());
  const std::vector<std::size_t> columns{0, 2, 4, 6};
  const ModelBundle bundle = trainer.train(dataset_, columns, "Volta");

  const auto dir =
      (std::filesystem::temp_directory_path() / "prodigy_bundle_test").string();
  bundle.save(dir);
  const ModelBundle loaded = ModelBundle::load(dir);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(loaded.metadata.system, "Volta");
  EXPECT_EQ(loaded.metadata.selected_columns, columns);
  EXPECT_DOUBLE_EQ(loaded.detector.threshold(), bundle.detector.threshold());

  const auto a = bundle.score_full(dataset_.X);
  const auto b = loaded.score_full(dataset_.X);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(ModelTrainerTest, ChiSquareSelectionFeedsTrainer) {
  // End-to-end offline flow of Fig. 1: scale -> chi2 -> train on top-k.
  pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
  features::FeatureDataset scaled = dataset_;
  scaled.X = scaler.fit_transform(dataset_.X);
  const auto selection = features::select_features_chi2(scaled, 4);
  ASSERT_EQ(selection.selected.size(), 4u);

  const ModelTrainer trainer(fast_config());
  const ModelBundle bundle = trainer.train(dataset_, selection.selected, "Eclipse");
  EXPECT_EQ(bundle.metadata.feature_names.size(), 4u);
}

TEST(DeploymentMetadataTest, SaveLoadRoundTrip) {
  DeploymentMetadata metadata;
  metadata.system = "Eclipse";
  metadata.feature_names = {"a::b::c", "d::e::f"};
  metadata.selected_columns = {3, 17};
  metadata.train_anomaly_ratio = 0.1;
  metadata.training_samples = 4913;

  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_meta_test.bin").string();
  {
    util::BinaryWriter writer(path);
    metadata.save(writer);
  }
  util::BinaryReader reader(path);
  const DeploymentMetadata loaded = DeploymentMetadata::load(reader);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.system, metadata.system);
  EXPECT_EQ(loaded.feature_names, metadata.feature_names);
  EXPECT_EQ(loaded.selected_columns, metadata.selected_columns);
  EXPECT_DOUBLE_EQ(loaded.train_anomaly_ratio, 0.1);
  EXPECT_EQ(loaded.training_samples, 4913u);
}

}  // namespace
}  // namespace prodigy::core
