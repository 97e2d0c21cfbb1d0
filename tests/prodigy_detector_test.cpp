#include "core/prodigy_detector.hpp"

#include "eval/metrics.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>

namespace prodigy::core {
namespace {

ProdigyConfig fast_config() {
  ProdigyConfig config;
  config.vae.encoder_hidden = {16, 8};
  config.vae.latent_dim = 3;
  config.train.epochs = 150;
  config.train.batch_size = 32;
  config.train.learning_rate = 2e-3;
  config.train.early_stopping_patience = 0;
  config.train.validation_split = 0.0;
  return config;
}

TEST(ProdigyDetectorTest, UsageErrorsBeforeFit) {
  ProdigyDetector detector(fast_config());
  EXPECT_FALSE(detector.fitted());
  EXPECT_THROW(detector.score(tensor::Matrix(1, 4, 0.0)), std::logic_error);
}

TEST(ProdigyDetectorTest, FitRejectsDegenerateInputs) {
  ProdigyDetector detector(fast_config());
  EXPECT_THROW(detector.fit_healthy(tensor::Matrix{}), std::invalid_argument);
  EXPECT_THROW(detector.fit(tensor::Matrix(2, 3, 0.0), {1, 1}), std::invalid_argument);
  EXPECT_THROW(detector.fit(tensor::Matrix(2, 3, 0.0), {0}), std::invalid_argument);
}

TEST(ProdigyDetectorTest, DetectsShiftedAnomalies) {
  auto [X, y] = testing::blob_dataset(300, 40, 8, 4.0, 1);
  ProdigyDetector detector(fast_config());
  detector.fit(X, y);  // trains on the 300 healthy rows only
  EXPECT_TRUE(detector.fitted());

  auto [X_test, y_test] = testing::blob_dataset(60, 60, 8, 4.0, 2);
  const auto predictions = detector.predict(X_test);
  const double f1 = eval::macro_f1(y_test, predictions);
  EXPECT_GT(f1, 0.85);
}

TEST(ProdigyDetectorTest, ThresholdIs99thPercentileOfTrainingErrors) {
  auto [X, y] = testing::blob_dataset(200, 0, 6, 0.0, 3);
  ProdigyDetector detector(fast_config());
  detector.fit_healthy(X);
  const auto errors = detector.score(X);
  std::vector<double> sorted(errors);
  std::sort(sorted.begin(), sorted.end());
  // ~1% of healthy training samples sit above the threshold.
  std::size_t above = 0;
  for (const double e : errors) above += e > detector.threshold() ? 1 : 0;
  EXPECT_LE(above, errors.size() / 50);
}

TEST(ProdigyDetectorTest, ThresholdPercentileIsConfigurable) {
  auto config = fast_config();
  config.threshold_percentile = 50.0;
  auto [X, y] = testing::blob_dataset(200, 0, 6, 0.0, 4);
  ProdigyDetector detector(config);
  detector.fit_healthy(X);
  std::size_t above = 0;
  for (const double e : detector.score(X)) above += e > detector.threshold() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(above), 100.0, 15.0);
}

TEST(ProdigyDetectorTest, TuneThresholdImprovesOrMatchesF1) {
  auto [X, y] = testing::blob_dataset(250, 30, 8, 3.0, 5);
  ProdigyDetector detector(fast_config());
  detector.fit(X, y);

  auto [X_test, y_test] = testing::blob_dataset(80, 80, 8, 3.0, 6);
  const double before = eval::macro_f1(y_test, detector.predict(X_test));
  const double tuned_f1 = detector.tune_threshold(X_test, y_test);
  const double after = eval::macro_f1(y_test, detector.predict(X_test));
  EXPECT_GE(after + 1e-9, before);
  EXPECT_NEAR(tuned_f1, after, 1e-9);
}

TEST(ProdigyDetectorTest, SetThresholdOverrides) {
  auto [X, y] = testing::blob_dataset(100, 0, 4, 0.0, 7);
  ProdigyDetector detector(fast_config());
  detector.fit_healthy(X);
  detector.set_threshold(1e9);
  const auto predictions = detector.predict(X);
  for (const int p : predictions) EXPECT_EQ(p, 0);
  detector.set_threshold(-1.0);
  for (const int p : detector.predict(X)) EXPECT_EQ(p, 1);
}

TEST(ProdigyDetectorTest, SaveLoadPredictsIdentically) {
  auto [X, y] = testing::blob_dataset(150, 20, 6, 3.0, 8);
  ProdigyDetector detector(fast_config());
  detector.fit(X, y);

  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_detector_test.bin").string();
  {
    util::BinaryWriter writer(path);
    detector.save(writer);
  }
  util::BinaryReader reader(path);
  const ProdigyDetector loaded = ProdigyDetector::load(reader);
  std::remove(path.c_str());

  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.threshold()),
            std::bit_cast<std::uint64_t>(detector.threshold()));
  const auto a = detector.score(X);
  const auto b = loaded.score(X);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "row " << i;
  }
  EXPECT_EQ(detector.predict(X), loaded.predict(X));
}

TEST(ProdigyDetectorTest, SaveBeforeFitThrows) {
  ProdigyDetector detector(fast_config());
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_detector_bad.bin").string();
  util::BinaryWriter writer(path);
  EXPECT_THROW(detector.save(writer), std::logic_error);
  std::remove(path.c_str());
}


TEST(ProdigyDetectorTest, UnsupervisedFitRejectsBadContamination) {
  ProdigyDetector detector(fast_config());
  auto [X, y] = testing::blob_dataset(50, 0, 4, 0.0, 20);
  EXPECT_THROW(detector.fit_unsupervised(X, -0.1), std::invalid_argument);
  EXPECT_THROW(detector.fit_unsupervised(X, 0.5), std::invalid_argument);
}

TEST(ProdigyDetectorTest, UnsupervisedFitPurgesContamination) {
  // Unlabeled training data with ~8% hidden anomalies (the paper's §7
  // future-work scenario: production telemetry is never perfectly healthy).
  auto [X, y] = testing::blob_dataset(230, 20, 8, 5.0, 21);
  ProdigyDetector detector(fast_config());
  const auto report = detector.fit_unsupervised(X, 0.08, 2);

  EXPECT_EQ(report.rounds, 3u);  // initial fit + 2 refinements
  EXPECT_EQ(report.excluded_per_round.size(), 2u);
  EXPECT_LT(report.final_training_size, 250u);
  EXPECT_GE(report.final_training_size, 200u);

  // The self-labeling purge removed (almost) all hidden anomalies: rows
  // 230..249 are the anomalous ones in blob_dataset's layout.
  std::size_t surviving_anomalies = 0;
  for (const auto row : report.kept_indices) {
    surviving_anomalies += row >= 230 ? 1 : 0;
  }
  EXPECT_LE(surviving_anomalies, 2u);
}

TEST(ProdigyDetectorTest, UnsupervisedFitTightensThresholdVsNaive) {
  auto [X, y] = testing::blob_dataset(230, 20, 8, 5.0, 23);
  ProdigyDetector naive(fast_config());
  naive.fit_healthy(X);  // pretends everything is healthy
  ProdigyDetector robust(fast_config());
  robust.fit_unsupervised(X, 0.08, 2);
  // The naive model's 99th-percentile threshold is dragged up by the hidden
  // anomalies; the robust fit ends with a much tighter threshold.
  EXPECT_LT(robust.threshold(), naive.threshold());
}

TEST(ProdigyDetectorTest, UnsupervisedFitOnCleanDataMatchesHealthyFit) {
  auto [X, y] = testing::blob_dataset(200, 0, 6, 0.0, 24);
  ProdigyDetector robust(fast_config());
  const auto report = robust.fit_unsupervised(X, 0.0, 3);
  EXPECT_EQ(report.rounds, 1u);  // contamination 0 -> single fit
  EXPECT_EQ(report.final_training_size, 200u);
}

TEST(ProdigyDetectorTest, UnsupervisedFitRestoresEpochsOnThrow) {
  // Regression: fit_unsupervised temporarily shrinks config_.train.epochs for
  // the screening rounds.  A fit that threw mid-loop used to leave the
  // detector stuck at the screening budget, so every later supervised fit
  // silently undertrained.  Forcing an input_dim mismatch makes the first
  // screening fit throw.
  auto config = fast_config();
  auto [X, y] = testing::blob_dataset(64, 0, 6, 0.0, 30);
  config.vae.input_dim = X.cols() + 1;  // fit_healthy will reject the data
  ProdigyDetector detector(config);
  EXPECT_THROW(detector.fit_unsupervised(X, 0.08, 2), std::invalid_argument);
  EXPECT_EQ(detector.config().train.epochs, 150u);
}

TEST(ProdigyDetectorTest, LoadedDetectorRefitsWithPersistedArchitecture) {
  // Regression: load() used to leave config_.vae at its defaults, so a
  // refit on a loaded detector would silently swap in the default
  // architecture (latent 8, hidden {64, 32}) instead of the persisted one.
  auto [X, y] = testing::blob_dataset(120, 0, 6, 0.0, 31);
  ProdigyDetector detector(fast_config());
  detector.fit_healthy(X);

  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_detector_refit.bin").string();
  {
    util::BinaryWriter writer(path);
    detector.save(writer);
  }
  util::BinaryReader reader(path);
  ProdigyDetector loaded = ProdigyDetector::load(reader);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.config().vae.latent_dim, 3u);
  EXPECT_EQ(loaded.config().vae.input_dim, X.cols());

  loaded.fit_healthy(X);  // must train the persisted architecture, not defaults
  EXPECT_EQ(loaded.vae().config().latent_dim, 3u);
  EXPECT_EQ(loaded.vae().config().input_dim, X.cols());
  EXPECT_EQ(loaded.vae().config().encoder_hidden, (std::vector<std::size_t>{16, 8}));
}

TEST(ProdigyDetectorTest, NameIsProdigy) {
  EXPECT_EQ(ProdigyDetector().name(), "Prodigy");
}

}  // namespace
}  // namespace prodigy::core
