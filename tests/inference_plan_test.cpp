// Fused-vs-layerwise inference-plan parity (the plan must be EXPECT_EQ
// bit-identical to the layer-by-layer oracle for every batch height, pool
// size, and NaN/Inf input — same determinism contract as tensor/kernels),
// plus builder validation and alias immunity.
#include "nn/inference_plan.hpp"

#include "core/vae.hpp"
#include "nn/mlp.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

namespace prodigy::nn {
namespace {

// Bit-level equality: EXPECT_EQ on doubles rejects NaN == NaN, but the
// parity contract covers NaN/Inf propagation too, so compare the bits.
void expect_bits_equal(const tensor::Matrix& a, const tensor::Matrix& b,
                       const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << what << " element " << i << ": " << a.data()[i]
        << " != " << b.data()[i];
  }
}

Mlp make_mlp(std::size_t input_dim, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<LayerSpec> specs = {{24, Activation::ReLU},
                                        {17, Activation::Tanh},
                                        {9, Activation::Sigmoid},
                                        {21, Activation::Linear}};
  return Mlp(input_dim, specs, rng);
}

tensor::Matrix random_input(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.gaussian(0.0, 2.0);
  return x;
}

TEST(InferencePlanParityTest, FusedMatchesLayerwiseBitsAcrossHeightsAndPools) {
  const std::size_t input_dim = 33;
  const Mlp mlp = make_mlp(input_dim, 17);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();
  EXPECT_EQ(plan.input_dim(), input_dim);
  EXPECT_EQ(plan.output_dim(), mlp.output_dim());
  EXPECT_EQ(plan.layer_count(), 4u);

  for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}, std::size_t{70}}) {
    const tensor::Matrix x = random_input(rows, input_dim, 100 + rows);
    const tensor::Matrix oracle = mlp.forward_inference(x);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      util::ThreadPool pool(workers);
      tensor::Matrix fused;
      plan.run(x, fused, &pool);
      expect_bits_equal(oracle, fused, "fused vs layerwise");
    }
  }
}

TEST(InferencePlanParityTest, NanAndInfPropagateIdentically) {
  const std::size_t input_dim = 12;
  const Mlp mlp = make_mlp(input_dim, 23);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();

  for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}}) {
    tensor::Matrix x = random_input(rows, input_dim, 200 + rows);
    x(0, 3) = std::numeric_limits<double>::quiet_NaN();
    x(rows / 2, 0) = std::numeric_limits<double>::infinity();
    x(rows - 1, input_dim - 1) = -std::numeric_limits<double>::infinity();
    const tensor::Matrix oracle = mlp.forward_inference(x);
    tensor::Matrix fused;
    plan.run(x, fused);
    expect_bits_equal(oracle, fused, "NaN/Inf propagation");
  }
}

TEST(InferencePlanParityTest, SingleRowMatchesSameRowInsideBatch) {
  const std::size_t input_dim = 19;
  const Mlp mlp = make_mlp(input_dim, 31);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();

  const tensor::Matrix batch = random_input(70, input_dim, 7);
  tensor::Matrix batch_out;
  plan.run(batch, batch_out);
  for (const std::size_t r : {std::size_t{0}, std::size_t{35}, std::size_t{69}}) {
    tensor::Matrix row(1, input_dim);
    for (std::size_t c = 0; c < input_dim; ++c) row(0, c) = batch(r, c);
    tensor::Matrix row_out;
    plan.run(row, row_out);
    ASSERT_EQ(row_out.cols(), batch_out.cols());
    for (std::size_t c = 0; c < row_out.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row_out(0, c)),
                std::bit_cast<std::uint64_t>(batch_out(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(InferencePlanParityTest, SingleDenseLayerMatchesDenseForward) {
  util::Rng rng(11);
  const Dense layer(15, 10, Activation::Tanh, rng);
  const InferencePlan plan = InferencePlan::Builder().add(layer).build();
  for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
    const tensor::Matrix x = random_input(rows, 15, 40 + rows);
    const tensor::Matrix oracle = layer.forward_inference(x);
    tensor::Matrix fused;
    plan.run(x, fused);
    expect_bits_equal(oracle, fused, "single-layer plan vs Dense");
  }
}

TEST(InferencePlanParityTest, RunIsAliasImmune) {
  const std::size_t input_dim = 21;
  const Mlp mlp = make_mlp(input_dim, 43);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();

  for (const std::size_t rows : {std::size_t{1}, std::size_t{70}}) {
    tensor::Matrix x = random_input(rows, input_dim, 300 + rows);
    tensor::Matrix expected;
    plan.run(x, expected);
    // In-place: the same Matrix as input and output.
    plan.run(x, x);
    expect_bits_equal(expected, x, "aliased run");
  }
}

TEST(InferencePlanParityTest, EmptyAndZeroRowInputs) {
  const Mlp mlp = make_mlp(6, 47);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();
  tensor::Matrix empty(0, 6);
  tensor::Matrix out;
  plan.run(empty, out);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), mlp.output_dim());

  const InferencePlan unbuilt;
  EXPECT_THROW(unbuilt.run(empty, out), std::logic_error);
}

TEST(InferencePlanBuilderTest, ValidatesLayerChain) {
  util::Rng rng(3);
  const Dense a(8, 5, Activation::ReLU, rng);
  const Dense mismatched(6, 4, Activation::ReLU, rng);
  InferencePlan::Builder builder;
  builder.add(a);
  EXPECT_THROW(builder.add(mismatched), std::invalid_argument);
  EXPECT_THROW(InferencePlan::Builder().build(), std::invalid_argument);
}

TEST(InferencePlanBuilderTest, RejectsWrongInputWidthAtRun) {
  const Mlp mlp = make_mlp(9, 53);
  const InferencePlan plan = InferencePlan::Builder().add(mlp).build();
  tensor::Matrix wrong(2, 8);
  tensor::Matrix out;
  EXPECT_THROW(plan.run(wrong, out), std::invalid_argument);
}

TEST(InferencePlanVaeTest, FusedReconstructionErrorMatchesLayerwiseOracle) {
  core::VaeConfig config;
  config.input_dim = 12;
  config.encoder_hidden = {16, 8};
  config.latent_dim = 3;
  config.seed = 5;
  core::VariationalAutoencoder vae(config);
  ASSERT_TRUE(vae.inference_plan() != nullptr);

  auto expect_fused_matches_oracle = [&](const char* when) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}, std::size_t{70}}) {
      const tensor::Matrix x = random_input(rows, 12, 400 + rows);
      const auto fused = vae.reconstruction_error(x);
      // The layer-by-layer statement of the same score: encoder, mu head,
      // decoder, then the row-wise mean absolute error.
      const auto oracle = tensor::rowwise_mean_abs_error(
          x, vae.decoder().forward_inference(vae.mu_head().forward_inference(
                 vae.encoder().forward_inference(x))));
      ASSERT_EQ(fused.size(), oracle.size());
      for (std::size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fused[i]),
                  std::bit_cast<std::uint64_t>(oracle[i]))
            << when << " rows=" << rows << " i=" << i;
      }
    }
  };
  expect_fused_matches_oracle("untrained");
  // fit() repacks the plan from the trained weights.
  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 16;
  vae.fit(random_input(48, 12, 9), options);
  expect_fused_matches_oracle("trained");
}

}  // namespace
}  // namespace prodigy::nn
