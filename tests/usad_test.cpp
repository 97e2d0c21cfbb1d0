#include "baselines/usad.hpp"

#include "eval/metrics.hpp"
#include "nn/loss.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

namespace prodigy::baselines {
namespace {

UsadConfig fast_config() {
  UsadConfig config;
  config.hidden = 48;
  config.latent = 12;
  config.train.epochs = 60;
  config.train.batch_size = 32;
  config.train.learning_rate = 2e-3;
  return config;
}

TEST(UsadTest, NameAndUsageErrors) {
  Usad usad(fast_config());
  EXPECT_EQ(usad.name(), "USAD");
  EXPECT_THROW(usad.score(tensor::Matrix(1, 4, 0.0)), std::logic_error);
  EXPECT_THROW(usad.fit_healthy(tensor::Matrix{}), std::invalid_argument);
  EXPECT_THROW(usad.fit(tensor::Matrix(2, 3, 0.0), {1}), std::invalid_argument);
  EXPECT_THROW(usad.fit(tensor::Matrix(2, 3, 0.0), {1, 1}), std::invalid_argument);
}

TEST(UsadTest, TrainingRunsRequestedEpochs) {
  auto [X, y] = testing::blob_dataset(100, 0, 6, 0.0, 1);
  Usad usad(fast_config());
  usad.fit_healthy(X);
  EXPECT_EQ(usad.history().epochs_run, 60u);
  EXPECT_FALSE(usad.history().train_loss.empty());
}

TEST(UsadTest, DetectsShiftedAnomalies) {
  auto [X, y] = testing::blob_dataset(300, 30, 8, 4.0, 2);
  auto config = fast_config();
  config.train.epochs = 120;
  Usad usad(config);
  usad.fit(X, y);

  auto [X_test, y_test] = testing::blob_dataset(60, 60, 8, 4.0, 3);
  usad.tune(X_test, y_test);  // paper tunes the threshold on the test scores
  const double f1 = eval::macro_f1(y_test, usad.predict(X_test));
  EXPECT_GT(f1, 0.8);
}

TEST(UsadTest, ScoresHigherForAnomalies) {
  auto [X, y] = testing::blob_dataset(250, 0, 6, 0.0, 4);
  Usad usad(fast_config());
  usad.fit_healthy(X);

  auto [X_mixed, y_mixed] = testing::blob_dataset(50, 50, 6, 4.0, 5);
  const auto scores = usad.score(X_mixed);
  double healthy_mean = 0.0, anomalous_mean = 0.0;
  for (std::size_t i = 0; i < 50; ++i) healthy_mean += scores[i];
  for (std::size_t i = 50; i < 100; ++i) anomalous_mean += scores[i];
  EXPECT_GT(anomalous_mean, healthy_mean * 2.0);
}

TEST(UsadTest, AlphaBetaChangeScoreMixture) {
  auto [X, y] = testing::blob_dataset(100, 0, 5, 0.0, 6);
  UsadConfig direct_only = fast_config();
  direct_only.alpha = 1.0;
  direct_only.beta = 0.0;
  UsadConfig adversarial_only = fast_config();
  adversarial_only.alpha = 0.0;
  adversarial_only.beta = 1.0;

  Usad a(direct_only), b(adversarial_only);
  a.fit_healthy(X);
  b.fit_healthy(X);
  const auto sa = a.score(X);
  const auto sb = b.score(X);
  double diff = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) diff += std::abs(sa[i] - sb[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(UsadTest, DefaultThresholdFlagsFewTrainingSamples) {
  auto [X, y] = testing::blob_dataset(200, 0, 6, 0.0, 7);
  Usad usad(fast_config());
  usad.fit_healthy(X);
  std::size_t flagged = 0;
  for (const int p : usad.predict(X)) flagged += p;
  EXPECT_LE(flagged, X.rows() / 20);  // ~1% by the 99th-percentile threshold
}

// Regression for the ragged-batch epoch-loss bug (the VAE fit's twin in
// vae_test.cpp): 33 rows at batch size 16 run batches of 16, 16 and 1 rows,
// and each per-batch mean must count for its rows.  In epoch 1 the
// adversarial weight 1 - 1/n is 0, so the epoch loss is the row-weighted
// AE1 reconstruction MSE; with learning_rate 0 every Adam step is an exact
// no-op, so the epoch is replicated against networks rebuilt from the seed.
TEST(UsadTest, EpochLossIsRowWeightedAcrossRaggedBatches) {
  const std::size_t rows = 33, dims = 6;
  auto [X, y] = testing::blob_dataset(rows, 0, dims, 0.0, 3);
  UsadConfig config;
  config.hidden = 10;
  config.latent = 4;
  config.train.epochs = 1;
  config.train.batch_size = 16;
  config.train.learning_rate = 0.0;
  config.train.seed = 13;
  Usad usad(config);
  usad.fit_healthy(X);
  ASSERT_EQ(usad.history().train_loss.size(), 1u);

  // fit_healthy's RNG order: encoder, decoder1 and decoder2 weights, then
  // the epoch's batch shuffle.
  util::Rng rng(config.train.seed);
  const nn::Activation act = nn::Activation::ReLU;
  const nn::Mlp encoder(dims, {{10, act}, {4, act}}, rng);
  const nn::Mlp decoder1(4, {{10, act}, {dims, nn::Activation::Linear}}, rng);
  const nn::Mlp decoder2(4, {{10, act}, {dims, nn::Activation::Linear}}, rng);
  const auto batches = nn::make_batches(rows, config.train.batch_size, rng);
  ASSERT_EQ(batches.size(), 3u);
  double weighted = 0.0;
  double unweighted = 0.0;
  for (const auto& batch : batches) {
    const tensor::Matrix x = X.select_rows(batch);
    const tensor::Matrix w1 =
        decoder1.forward_inference(encoder.forward_inference(x));
    const double loss = nn::mse_loss(w1, x);
    weighted += loss * static_cast<double>(x.rows());
    unweighted += loss;
  }
  EXPECT_DOUBLE_EQ(usad.history().train_loss[0],
                   weighted / static_cast<double>(rows));
  EXPECT_NE(usad.history().train_loss[0],
            unweighted / static_cast<double>(batches.size()));
}

}  // namespace
}  // namespace prodigy::baselines
