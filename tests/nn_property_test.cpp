// Property tests for the NN substrate: numerical gradient checks across
// every activation and several architectures, and optimizer invariants.
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace prodigy::nn {
namespace {

using tensor::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double scale = 0.7) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = scale * rng.gaussian();
  return m;
}

struct GradCheckCase {
  Activation hidden;
  std::size_t input_dim;
  std::size_t hidden_units;
  std::size_t output_dim;
  std::size_t batch;
};

class GradCheckTest : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumericalEverywhere) {
  const auto& param = GetParam();
  util::Rng rng(11);
  Mlp mlp(param.input_dim,
          {{param.hidden_units, param.hidden},
           {param.output_dim, Activation::Linear}},
          rng);
  // Keep pre-activations away from ReLU kinks for clean finite differences.
  const Matrix x = random_matrix(param.batch, param.input_dim, 21);
  const Matrix target = random_matrix(param.batch, param.output_dim, 22, 0.3);

  mlp.zero_gradients();
  Matrix grad;
  mse_loss(mlp.forward(x), target, &grad);
  mlp.backward(grad);

  const double eps = 1e-6;
  auto loss_at = [&](Mlp& model) {
    return mse_loss(model.forward_inference(x), target);
  };
  // Probe every layer: a few weights and a bias each.
  util::Rng probe_rng(33);
  for (std::size_t layer_id = 0; layer_id < mlp.layer_count(); ++layer_id) {
    auto& layer = mlp.layer(layer_id);
    for (int probe = 0; probe < 4; ++probe) {
      const auto r = probe_rng.uniform_index(layer.weights().rows());
      const auto c = probe_rng.uniform_index(layer.weights().cols());
      Mlp copy = mlp;
      copy.layer(layer_id).weights()(r, c) += eps;
      const double up = loss_at(copy);
      copy.layer(layer_id).weights()(r, c) -= 2 * eps;
      const double down = loss_at(copy);
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.weight_grad()(r, c), numeric,
                  1e-4 * std::max(1.0, std::abs(numeric)))
          << "layer " << layer_id << " w(" << r << "," << c << ")";
    }
    const auto b = probe_rng.uniform_index(layer.bias().size());
    Mlp copy = mlp;
    copy.layer(layer_id).bias()[b] += eps;
    const double up = loss_at(copy);
    copy.layer(layer_id).bias()[b] -= 2 * eps;
    const double down = loss_at(copy);
    EXPECT_NEAR(layer.bias_grad()[b], (up - down) / (2 * eps), 1e-5)
        << "layer " << layer_id << " b(" << b << ")";
  }
}

TEST_P(GradCheckTest, GradientsAccumulateAcrossBackwardCalls) {
  const auto& param = GetParam();
  util::Rng rng(12);
  Mlp mlp(param.input_dim,
          {{param.hidden_units, param.hidden},
           {param.output_dim, Activation::Linear}},
          rng);
  const Matrix x = random_matrix(param.batch, param.input_dim, 23);
  const Matrix target = random_matrix(param.batch, param.output_dim, 24, 0.3);

  mlp.zero_gradients();
  Matrix grad;
  mse_loss(mlp.forward(x), target, &grad);
  mlp.backward(grad);
  const double once = mlp.layer(0).weight_grad()(0, 0);
  // Same pass again without zeroing -> exactly doubled.
  mlp.forward(x);
  mlp.backward(grad);
  EXPECT_NEAR(mlp.layer(0).weight_grad()(0, 0), 2.0 * once,
              1e-9 * std::max(1.0, std::abs(once)));
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheckTest,
    ::testing::Values(GradCheckCase{Activation::Tanh, 3, 5, 2, 4},
                      GradCheckCase{Activation::Sigmoid, 4, 6, 3, 2},
                      GradCheckCase{Activation::ReLU, 5, 8, 4, 6},
                      GradCheckCase{Activation::Linear, 2, 3, 2, 1}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return to_string(info.param.hidden) + "_" +
             std::to_string(info.param.input_dim) + "in";
    });

class OptimizerPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerPropertyTest, AdamIsInvariantToGradientScale) {
  // Adam's update direction depends on g / sqrt(g^2): rescaling all
  // gradients by a constant leaves the first step (almost) unchanged.
  const double scale = GetParam();
  std::vector<double> p1{1.0}, g1{0.3};
  std::vector<double> p2{1.0}, g2{0.3 * scale};
  Adam a(0.05), b(0.05);
  a.register_parameters({p1.data(), g1.data(), 1});
  b.register_parameters({p2.data(), g2.data(), 1});
  a.step();
  b.step();
  EXPECT_NEAR(p1[0], p2[0], 1e-6);
}

TEST_P(OptimizerPropertyTest, SgdScalesLinearlyWithGradient) {
  const double scale = GetParam();
  std::vector<double> p1{0.0}, g1{0.3};
  std::vector<double> p2{0.0}, g2{0.3 * scale};
  Sgd a(0.1), b(0.1);
  a.register_parameters({p1.data(), g1.data(), 1});
  b.register_parameters({p2.data(), g2.data(), 1});
  a.step();
  b.step();
  EXPECT_NEAR(p2[0], p1[0] * scale, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, OptimizerPropertyTest,
                         ::testing::Values(0.1, 2.0, 100.0));

}  // namespace
}  // namespace prodigy::nn
