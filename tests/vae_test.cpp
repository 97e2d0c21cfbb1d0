#include "core/vae.hpp"

#include "core/prodigy_detector.hpp"
#include "nn/loss.hpp"
#include "test_helpers.hpp"
#include "tensor/stats.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace prodigy::core {
namespace {

VaeConfig small_config(std::size_t input_dim) {
  VaeConfig config;
  config.input_dim = input_dim;
  config.encoder_hidden = {16, 8};
  config.latent_dim = 3;
  config.seed = 5;
  return config;
}

nn::TrainOptions fast_options() {
  nn::TrainOptions options;
  options.epochs = 120;
  options.batch_size = 32;
  options.learning_rate = 2e-3;
  options.seed = 9;
  return options;
}

/// Correlated healthy data on a low-dimensional manifold.
tensor::Matrix manifold_data(std::size_t n, std::size_t dims, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix X(n, dims);
  for (std::size_t r = 0; r < n; ++r) {
    const double t = rng.uniform(-1.0, 1.0);
    const double u = rng.uniform(-1.0, 1.0);
    for (std::size_t c = 0; c < dims; ++c) {
      const double weight_t = std::sin(static_cast<double>(c));
      const double weight_u = std::cos(static_cast<double>(c) * 0.7);
      X(r, c) = weight_t * t + weight_u * u + 0.02 * rng.gaussian();
    }
  }
  return X;
}

TEST(VaeTest, ConstructorValidatesConfig) {
  VaeConfig bad;
  bad.input_dim = 0;
  EXPECT_THROW(VariationalAutoencoder{bad}, std::invalid_argument);
  VaeConfig no_hidden = small_config(4);
  no_hidden.encoder_hidden.clear();
  EXPECT_THROW(VariationalAutoencoder{no_hidden}, std::invalid_argument);
}

TEST(VaeTest, ParameterCountMatchesArchitecture) {
  const VariationalAutoencoder vae(small_config(10));
  // encoder: 10*16+16 + 16*8+8; heads: 2*(8*3+3); decoder: 3*8+8 + 8*16+16 + 16*10+10.
  const std::size_t expected = (10 * 16 + 16) + (16 * 8 + 8) + 2 * (8 * 3 + 3) +
                               (3 * 8 + 8) + (8 * 16 + 16) + (16 * 10 + 10);
  EXPECT_EQ(vae.parameter_count(), expected);
}

TEST(VaeTest, ScoringBeforeAPlanExistsThrows) {
  // A default-constructed VAE has no fused plan and no layers to score
  // with; both scoring entry points refuse it by name, not through a shape
  // error further down.
  const VariationalAutoencoder vae;
  const tensor::Matrix x(2, 4, 0.5);
  for (const bool reconstruct : {false, true}) {
    try {
      if (reconstruct) {
        (void)vae.reconstruct(x);
      } else {
        (void)vae.reconstruction_error(x);
      }
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("before fit"), std::string::npos)
          << e.what();
    }
  }
}

TEST(VaeTest, FitRejectsWrongWidth) {
  VariationalAutoencoder vae(small_config(5));
  EXPECT_THROW(vae.fit(tensor::Matrix(10, 4, 0.0), fast_options()),
               std::invalid_argument);
}

TEST(VaeTest, TrainingLossDecreases) {
  const auto data = manifold_data(128, 10, 1);
  VariationalAutoencoder vae(small_config(10));
  const auto history = vae.fit(data, fast_options());
  ASSERT_GE(history.train_loss.size(), 10u);
  const double early = history.train_loss[2];
  const double late = history.train_loss.back();
  EXPECT_LT(late, early * 0.8);
}

TEST(VaeTest, ReconstructionErrorSeparatesInAndOutOfDistribution) {
  const auto healthy = manifold_data(200, 12, 2);
  VariationalAutoencoder vae(small_config(12));
  auto options = fast_options();
  options.epochs = 200;
  vae.fit(healthy, options);

  const auto held_out = manifold_data(50, 12, 3);
  util::Rng rng(4);
  tensor::Matrix outliers(50, 12);
  for (std::size_t i = 0; i < outliers.size(); ++i) {
    outliers.data()[i] = rng.gaussian(2.5, 1.0);  // far off-manifold
  }

  const double in_dist = tensor::mean(vae.reconstruction_error(held_out));
  const double out_dist = tensor::mean(vae.reconstruction_error(outliers));
  EXPECT_GT(out_dist, in_dist * 2.0);
}

TEST(VaeTest, EncodeMeanHasLatentShape) {
  const auto data = manifold_data(20, 10, 5);
  VariationalAutoencoder vae(small_config(10));
  const auto z = vae.encode_mean(data);
  EXPECT_EQ(z.rows(), 20u);
  EXPECT_EQ(z.cols(), 3u);
}

TEST(VaeTest, KlRegularizationKeepsLatentNearPrior) {
  const auto data = manifold_data(200, 10, 6);
  auto config = small_config(10);
  config.kl_weight = 1.0;
  VariationalAutoencoder vae(config);
  auto options = fast_options();
  options.epochs = 150;
  vae.fit(data, options);
  const auto z = vae.encode_mean(data);
  // Latent means should be O(1), not exploding: KL pulls them to N(0, I).
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_LT(std::abs(z.data()[i]), 6.0);
  }
}

TEST(VaeTest, SampleGeneratesFiniteData) {
  const auto data = manifold_data(100, 8, 7);
  VariationalAutoencoder vae(small_config(8));
  vae.fit(data, fast_options());
  util::Rng rng(8);
  const auto generated = vae.sample(10, rng);
  EXPECT_EQ(generated.rows(), 10u);
  EXPECT_EQ(generated.cols(), 8u);
  for (std::size_t i = 0; i < generated.size(); ++i) {
    EXPECT_TRUE(std::isfinite(generated.data()[i]));
  }
}

TEST(VaeTest, MaeReconLossVariantTrains) {
  auto config = small_config(6);
  config.recon_loss = ReconLoss::Mae;
  const auto data = manifold_data(96, 6, 9);
  VariationalAutoencoder vae(config);
  const auto history = vae.fit(data, fast_options());
  EXPECT_LT(history.train_loss.back(), history.train_loss.front());
}

TEST(VaeTest, EarlyStoppingCutsEpochs) {
  const auto data = manifold_data(100, 6, 10);
  VariationalAutoencoder vae(small_config(6));
  auto options = fast_options();
  options.epochs = 2000;
  options.validation_split = 0.2;
  options.early_stopping_patience = 10;
  const auto history = vae.fit(data, options);
  EXPECT_LT(history.epochs_run, 2000u);
  EXPECT_TRUE(history.stopped_early);
}

TEST(VaeTest, SaveLoadReconstructsIdentically) {
  const auto data = manifold_data(80, 7, 11);
  VariationalAutoencoder vae(small_config(7));
  vae.fit(data, fast_options());

  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_vae_test.bin").string();
  {
    util::BinaryWriter writer(path);
    vae.save(writer);
  }
  util::BinaryReader reader(path);
  const VariationalAutoencoder loaded = VariationalAutoencoder::load(reader);
  std::remove(path.c_str());

  const auto a = vae.reconstruction_error(data);
  const auto b = loaded.reconstruction_error(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "row " << i;
  }
  EXPECT_EQ(loaded.config().latent_dim, 3u);
}

// Regression for the ragged-batch epoch-loss bug: forward_backward returns
// per-batch *means*, so a 33-row epoch with batch_size 16 (batches of 16, 16
// and 1) must weight each batch by its row count.  The old code averaged the
// three batch means equally, letting the 1-row tail batch count 16x.  With
// learning_rate 0 the Adam updates are exact no-ops, so the epoch can be
// replicated by hand against frozen initial weights.
TEST(VaeTest, EpochLossIsRowWeightedAcrossRaggedBatches) {
  const std::size_t rows = 33;
  const auto data = manifold_data(rows, 9, 12);
  VariationalAutoencoder vae(small_config(9));

  nn::TrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  options.learning_rate = 0.0;
  options.validation_split = 0.0;
  options.seed = 13;
  const auto history = vae.fit(data, options);
  ASSERT_EQ(history.train_loss.size(), 1u);

  // Replicate fit()'s exact RNG consumption order: permutation (drawn even
  // when the validation split is empty), batch shuffling, then one gaussian
  // per latent element per batch — all from the same seed.
  util::Rng rng(options.seed);
  const auto perm = rng.permutation(rows);
  const tensor::Matrix train = data.select_rows({perm.begin(), perm.end()});
  const auto batches = nn::make_batches(rows, options.batch_size, rng);
  ASSERT_EQ(batches.size(), 3u);

  double weighted = 0.0;
  double unweighted = 0.0;
  std::size_t total_rows = 0;
  for (const auto& batch : batches) {
    const tensor::Matrix x = train.select_rows(batch);
    const tensor::Matrix h = vae.encoder().forward_inference(x);
    const tensor::Matrix mu = vae.mu_head().forward_inference(h);
    const tensor::Matrix logvar = vae.logvar_head().forward_inference(h);
    tensor::Matrix eps(mu.rows(), mu.cols());
    for (std::size_t i = 0; i < eps.size(); ++i) eps.data()[i] = rng.gaussian();
    tensor::Matrix z = mu;
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double lv = std::clamp(logvar.data()[i], -10.0, 10.0);
      z.data()[i] += std::exp(0.5 * lv) * eps.data()[i];
    }
    const tensor::Matrix recon = vae.decoder().forward_inference(z);
    const double batch_loss =
        nn::mse_loss(recon, x).value +
        vae.config().kl_weight * nn::gaussian_kl(mu, logvar).value;
    weighted += batch_loss * static_cast<double>(x.rows());
    unweighted += batch_loss;
    total_rows += x.rows();
  }
  ASSERT_EQ(total_rows, rows);
  EXPECT_DOUBLE_EQ(history.train_loss[0],
                   weighted / static_cast<double>(rows));
  // And the fix is observable: the unweighted mean-of-means differs.
  EXPECT_NE(history.train_loss[0],
            unweighted / static_cast<double>(batches.size()));
}

namespace {

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// `file` is the scratch file's name in the temp directory; tests that ctest
// may run concurrently must not share one.
std::string serialized_bytes(const auto& component,
                             const char* file = "prodigy_vae_component.bin") {
  const auto path = (std::filesystem::temp_directory_path() / file).string();
  {
    util::BinaryWriter writer(path);
    component.save(writer);
  }
  auto bytes = read_file_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

}  // namespace

// The shipped architecture (ProdigyConfig's {64,32}/8 VAE at batch 64 with a
// 20% validation split) on 112 x 2000 data, so each epoch runs a 64- and a
// 26-row step through the 2-D-blocked wide GEMMs and the chunk-split Adam
// over 263k parameters.  Fitted on the calling thread (both fan out across
// the global pool) and inside a global-pool task (every nested fan-out runs
// inline, serially), the saved bytes and the threshold must be identical.
TEST(VaeDeterminismTest, ShippedArchitectureFitIsPoolIndependent) {
  const auto data = manifold_data(112, 2000, 21);
  ProdigyConfig config;
  config.train.epochs = 3;
  const auto fit = [&] {
    ProdigyDetector detector(config);
    detector.fit_healthy(data);
    return detector;
  };
  const ProdigyDetector parallel = fit();
  ProdigyDetector serial;
  util::ThreadPool::global().submit([&] { serial = fit(); }).get();

  ASSERT_EQ(parallel.vae().parameter_count(), 263'072u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.threshold()),
            std::bit_cast<std::uint64_t>(parallel.threshold()));
  EXPECT_EQ(serialized_bytes(serial, "prodigy_vae_fit_serial.bin"),
            serialized_bytes(parallel, "prodigy_vae_fit_parallel.bin"));
}

TEST(VaeTest, LoadRejectsMismatchedHeadDimensions) {
  // Compose a byte-level corrupt model: a valid save with its mu head
  // replaced by a Dense whose input width does not match the encoder's last
  // hidden layer.  Every component parses individually, so only the VAE-level
  // cross-validation can catch it.
  VariationalAutoencoder vae(small_config(6));
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_vae_corrupt.bin")
          .string();
  {
    util::BinaryWriter writer(path);
    vae.save(writer);
  }
  const std::string full = read_file_bytes(path);
  const std::string enc = serialized_bytes(vae.encoder());
  const std::string mu = serialized_bytes(vae.mu_head());
  const std::string lv = serialized_bytes(vae.logvar_head());
  const std::string dec = serialized_bytes(vae.decoder());
  ASSERT_GT(full.size(), enc.size() + mu.size() + lv.size() + dec.size());
  const std::size_t header =
      full.size() - enc.size() - mu.size() - lv.size() - dec.size();

  util::Rng rng(99);
  // hidden.back() is 8; a 7-wide head is internally consistent but wrong.
  const nn::Dense bad_head(7, 3, nn::Activation::Linear, rng);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(header + enc.size()));
    const std::string bad = serialized_bytes(bad_head);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    const std::size_t rest = header + enc.size() + mu.size();
    out.write(full.data() + rest,
              static_cast<std::streamsize>(full.size() - rest));
  }
  util::BinaryReader reader(path);
  try {
    VariationalAutoencoder::load(reader);
    FAIL() << "load accepted a mu head that does not chain";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(VaeTest, LoadRejectsTruncatedFile) {
  VariationalAutoencoder vae(small_config(5));
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_vae_truncated.bin")
          .string();
  {
    util::BinaryWriter writer(path);
    vae.save(writer);
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  util::BinaryReader reader(path);
  EXPECT_THROW(VariationalAutoencoder::load(reader), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prodigy::core
