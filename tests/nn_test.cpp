#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <vector>

namespace prodigy::nn {
namespace {

using tensor::Matrix;

TEST(ActivationTest, ReluClampsNegatives) {
  Matrix m{{-1.0, 0.0, 2.0}};
  apply_activation(Activation::ReLU, m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 2.0);
}

TEST(ActivationTest, SigmoidValues) {
  Matrix m{{0.0, 100.0, -100.0}};
  apply_activation(Activation::Sigmoid, m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m(0, 2), 0.0, 1e-12);
}

TEST(ActivationTest, TanhValues) {
  Matrix m{{0.0, 1.0}};
  apply_activation(Activation::Tanh, m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_NEAR(m(0, 1), std::tanh(1.0), 1e-12);
}

TEST(ActivationTest, GradientFromPostActivation) {
  // sigmoid'(x) = s(1-s); at x=0, s=0.5 -> 0.25.
  Matrix activated{{0.5}};
  Matrix grad{{1.0}};
  apply_activation_gradient(Activation::Sigmoid, activated, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.25);

  Matrix tanh_act{{std::tanh(1.0)}};
  Matrix tanh_grad{{1.0}};
  apply_activation_gradient(Activation::Tanh, tanh_act, tanh_grad);
  EXPECT_NEAR(tanh_grad(0, 0), 1.0 - std::tanh(1.0) * std::tanh(1.0), 1e-12);
}

TEST(ActivationTest, StringRoundTrip) {
  for (const auto act : {Activation::Linear, Activation::ReLU, Activation::Tanh,
                         Activation::Sigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(act)), act);
  }
  EXPECT_THROW(activation_from_string("swish"), std::invalid_argument);
}

TEST(LossTest, MseValueAndGradient) {
  const Matrix pred{{1.0, 2.0}};
  const Matrix target{{0.0, 4.0}};
  Matrix grad;
  EXPECT_DOUBLE_EQ(mse_loss(pred, target, &grad), (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0 * -2.0 / 2.0);
  EXPECT_DOUBLE_EQ(mse_loss(pred, target), (1.0 + 4.0) / 2.0);
}

TEST(LossTest, MaeValueAndGradient) {
  const Matrix pred{{1.0, 2.0, 3.0}};
  const Matrix target{{0.0, 2.0, 5.0}};
  Matrix grad;
  EXPECT_DOUBLE_EQ(mae_loss(pred, target, &grad), (1.0 + 0.0 + 2.0) / 3.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 2), -1.0 / 3.0);
  EXPECT_DOUBLE_EQ(mae_loss(pred, target), (1.0 + 0.0 + 2.0) / 3.0);
}

TEST(LossTest, KlOfStandardNormalIsZero) {
  const Matrix mu(2, 3, 0.0);
  const Matrix logvar(2, 3, 0.0);
  Matrix grad_mu, grad_logvar;
  EXPECT_NEAR(gaussian_kl(mu, logvar, &grad_mu, &grad_logvar), 0.0, 1e-12);
  ASSERT_TRUE(grad_mu.same_shape(mu));
  ASSERT_TRUE(grad_logvar.same_shape(mu));
  for (std::size_t i = 0; i < grad_mu.size(); ++i) {
    EXPECT_NEAR(grad_mu.data()[i], 0.0, 1e-12);
    EXPECT_NEAR(grad_logvar.data()[i], 0.0, 1e-12);
  }
}

TEST(LossTest, KlPositiveAwayFromPrior) {
  const Matrix mu(1, 2, 2.0);
  const Matrix logvar(1, 2, 1.0);
  EXPECT_GT(gaussian_kl(mu, logvar), 0.0);
}

TEST(LossTest, KlGradientMatchesNumerical) {
  Matrix mu{{0.3, -0.7}};
  Matrix logvar{{0.2, -0.4}};
  Matrix grad_mu, grad_logvar;
  gaussian_kl(mu, logvar, &grad_mu, &grad_logvar);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    Matrix mu_p = mu;
    mu_p.data()[i] += eps;
    Matrix mu_m = mu;
    mu_m.data()[i] -= eps;
    const double numeric =
        (gaussian_kl(mu_p, logvar) - gaussian_kl(mu_m, logvar)) / (2 * eps);
    EXPECT_NEAR(grad_mu.data()[i], numeric, 1e-5);

    Matrix lv_p = logvar;
    lv_p.data()[i] += eps;
    Matrix lv_m = logvar;
    lv_m.data()[i] -= eps;
    const double numeric_lv =
        (gaussian_kl(mu, lv_p) - gaussian_kl(mu, lv_m)) / (2 * eps);
    EXPECT_NEAR(grad_logvar.data()[i], numeric_lv, 1e-5);
  }
}

TEST(DenseTest, ForwardLinearAlgebra) {
  util::Rng rng(1);
  Dense layer(2, 1, Activation::Linear, rng);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(1, 0) = -1.0;
  layer.bias()[0] = 0.5;
  const Matrix out = layer.forward(Matrix{{3.0, 4.0}});
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0 * 2.0 + 4.0 * -1.0 + 0.5);
}

TEST(DenseTest, NumericalGradientCheck) {
  util::Rng rng(2);
  Dense layer(3, 2, Activation::Tanh, rng);
  const Matrix x{{0.2, -0.5, 0.8}, {-0.1, 0.4, 0.3}};
  const Matrix target(2, 2, 0.7);

  layer.zero_gradients();
  const Matrix out = layer.forward(x);
  Matrix grad;
  mse_loss(out, target, &grad);
  layer.backward(grad);

  const double eps = 1e-6;
  auto loss_at = [&](Dense& l) {
    return mse_loss(l.forward_inference(x), target);
  };
  // Check a handful of weight gradients numerically.
  for (const auto& [r, c] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {1, 1}, {2, 0}}) {
    Dense probe = layer;
    probe.weights()(r, c) += eps;
    const double up = loss_at(probe);
    probe.weights()(r, c) -= 2 * eps;
    const double down = loss_at(probe);
    EXPECT_NEAR(layer.weight_grad()(r, c), (up - down) / (2 * eps), 1e-5);
  }
  // And a bias gradient.
  Dense probe = layer;
  probe.bias()[1] += eps;
  const double up = loss_at(probe);
  probe.bias()[1] -= 2 * eps;
  const double down = loss_at(probe);
  EXPECT_NEAR(layer.bias_grad()[1], (up - down) / (2 * eps), 1e-5);
}

TEST(DenseTest, InputGradientCheck) {
  util::Rng rng(3);
  Dense layer(2, 2, Activation::Sigmoid, rng);
  Matrix x{{0.3, -0.6}};
  const Matrix target(1, 2, 0.2);

  layer.zero_gradients();
  Matrix grad;
  mse_loss(layer.forward(x), target, &grad);
  const Matrix grad_in = layer.backward(grad);

  const double eps = 1e-6;
  for (std::size_t c = 0; c < 2; ++c) {
    Matrix xp = x;
    xp(0, c) += eps;
    Matrix xm = x;
    xm(0, c) -= eps;
    const double numeric = (mse_loss(layer.forward_inference(xp), target) -
                            mse_loss(layer.forward_inference(xm), target)) /
                           (2 * eps);
    EXPECT_NEAR(grad_in(0, c), numeric, 1e-5);
  }
}

TEST(DenseTest, SaveLoadRoundTrip) {
  util::Rng rng(4);
  Dense layer(3, 2, Activation::ReLU, rng);
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_dense_test.bin").string();
  {
    util::BinaryWriter writer(path);
    layer.save(writer);
  }
  util::BinaryReader reader(path);
  const Dense loaded = Dense::load(reader);
  std::remove(path.c_str());

  const Matrix x{{0.1, 0.2, 0.3}};
  const Matrix a = layer.forward_inference(x);
  const Matrix b = loaded.forward_inference(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

TEST(MlpTest, ShapesAndParameterCount) {
  util::Rng rng(5);
  const Mlp mlp(4, {{8, Activation::ReLU}, {2, Activation::Linear}}, rng);
  EXPECT_EQ(mlp.input_dim(), 4u);
  EXPECT_EQ(mlp.output_dim(), 2u);
  EXPECT_EQ(mlp.layer_count(), 2u);
  EXPECT_EQ(mlp.parameter_count(), (4 * 8 + 8) + (8 * 2 + 2));
}

TEST(MlpTest, InvalidSpecsThrow) {
  util::Rng rng(6);
  EXPECT_THROW(Mlp(0, {{4, Activation::ReLU}}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp(4, {{0, Activation::ReLU}}, rng), std::invalid_argument);
}

TEST(MlpTest, EndToEndGradientCheck) {
  util::Rng rng(7);
  Mlp mlp(3, {{5, Activation::Tanh}, {3, Activation::Linear}}, rng);
  const Matrix x{{0.5, -0.2, 0.1}, {0.3, 0.8, -0.4}};
  const Matrix target(2, 3, 0.25);

  mlp.zero_gradients();
  Matrix grad;
  mse_loss(mlp.forward(x), target, &grad);
  mlp.backward(grad);

  const double eps = 1e-6;
  Mlp probe = mlp;
  auto loss_at = [&] { return mse_loss(probe.forward_inference(x), target); };
  // Check first-layer and last-layer weights.
  for (std::size_t layer_id : {std::size_t{0}, std::size_t{1}}) {
    probe = mlp;
    probe.layer(layer_id).weights()(0, 0) += eps;
    const double up = loss_at();
    probe.layer(layer_id).weights()(0, 0) -= 2 * eps;
    const double down = loss_at();
    EXPECT_NEAR(mlp.layer(layer_id).weight_grad()(0, 0), (up - down) / (2 * eps), 1e-5)
        << "layer " << layer_id;
  }
}

TEST(MlpTest, ParamOnlyBackwardTrainsBitIdentically) {
  // Copies of one network take the same Adam steps on the same batches:
  // one through the full backward (whose input gradient is discarded), one
  // through the parameter-only backward, and one that never zeroes its
  // gradients (they start as garbage) and overwrites them instead.  Every
  // weight must agree.
  util::Rng rng(17);
  const Mlp initial(6, {{9, Activation::ReLU}, {4, Activation::Tanh},
                        {6, Activation::Linear}}, rng);
  Mlp full = initial;
  Mlp params_only = initial;
  Mlp overwrite = initial;
  Adam full_opt(1e-2);
  Adam params_opt(1e-2);
  Adam overwrite_opt(1e-2);
  full.register_with(full_opt);
  params_only.register_with(params_opt);
  overwrite.register_with(overwrite_opt);
  for (std::size_t l = 0; l < overwrite.layer_count(); ++l) {
    Matrix& weight_grad = overwrite.layer(l).weight_grad();
    std::fill(weight_grad.data(), weight_grad.data() + weight_grad.size(), 123.0);
    for (double& g : overwrite.layer(l).bias_grad()) g = -7.0;
  }

  for (std::size_t step = 0; step < 8; ++step) {
    Matrix x(5 + step % 3, 6);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.gaussian();

    full.zero_gradients();
    Matrix full_grad;
    mse_loss(full.forward(x), x, &full_grad);
    full.backward(full_grad);
    full_opt.step();

    params_only.zero_gradients();
    Matrix params_grad;
    mse_loss(params_only.forward(x), x, &params_grad);
    params_only.backward_params(params_grad);
    params_opt.step();

    Matrix overwrite_grad;
    mse_loss(overwrite.forward(x), x, &overwrite_grad);
    overwrite.backward_params(overwrite_grad, GradientWrite::Overwrite);
    overwrite_opt.step();
  }
  for (std::size_t l = 0; l < full.layer_count(); ++l) {
    const auto& w_full = full.layer(l).weights();
    const auto& w_params = params_only.layer(l).weights();
    const auto& w_overwrite = overwrite.layer(l).weights();
    for (std::size_t i = 0; i < w_full.size(); ++i) {
      EXPECT_EQ(w_full.data()[i], w_params.data()[i]) << "layer " << l;
      EXPECT_EQ(w_full.data()[i], w_overwrite.data()[i]) << "layer " << l;
    }
    for (std::size_t j = 0; j < full.layer(l).bias().size(); ++j) {
      EXPECT_EQ(full.layer(l).bias()[j], params_only.layer(l).bias()[j])
          << "layer " << l;
      EXPECT_EQ(full.layer(l).bias()[j], overwrite.layer(l).bias()[j])
          << "layer " << l;
    }
  }
}

TEST(MlpTest, SaveLoadRoundTrip) {
  util::Rng rng(8);
  const Mlp mlp(3, {{4, Activation::ReLU}, {3, Activation::Linear}}, rng);
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_mlp_test.bin").string();
  {
    util::BinaryWriter writer(path);
    mlp.save(writer);
  }
  util::BinaryReader reader(path);
  const Mlp loaded = Mlp::load(reader);
  std::remove(path.c_str());

  const Matrix x{{0.4, 0.5, 0.6}};
  const Matrix a = mlp.forward_inference(x);
  const Matrix b = loaded.forward_inference(x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

TEST(MlpTest, ForwardInferenceIntoRejectsAliasedBuffers) {
  util::Rng rng(9);
  const Mlp mlp(3, {{4, Activation::ReLU}, {3, Activation::Linear}}, rng);
  Matrix x{{0.4, 0.5, 0.6}};
  // The kernels stream into `out` while the last layer still reads it; an
  // aliased call would silently corrupt the result, so it must throw.
  EXPECT_THROW(mlp.forward_inference_into(x, x), std::invalid_argument);
  // Non-aliased calls are unaffected.
  Matrix out;
  mlp.forward_inference_into(x, out);
  EXPECT_EQ(out.cols(), 3u);
}

TEST(MlpTest, LoadRejectsBrokenLayerChain) {
  util::Rng rng(10);
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_mlp_corrupt.bin")
          .string();
  {
    // Hand-assemble a stream in Mlp::save's format whose second layer does
    // not chain: 4 -> 5 followed by 7 -> 3.
    util::BinaryWriter writer(path);
    writer.write_u64(4);
    writer.write_u64(2);
    Dense(4, 5, Activation::ReLU, rng).save(writer);
    Dense(7, 3, Activation::Linear, rng).save(writer);
  }
  util::BinaryReader reader(path);
  try {
    Mlp::load(reader);
    FAIL() << "Mlp::load accepted a broken layer chain";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not chain"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(MlpTest, LoadRejectsZeroInputDim) {
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_mlp_zero.bin").string();
  {
    util::BinaryWriter writer(path);
    writer.write_u64(0);  // input_dim
    writer.write_u64(0);  // layer count
  }
  util::BinaryReader reader(path);
  EXPECT_THROW(Mlp::load(reader), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DenseTest, LoadRejectsZeroSizedLayer) {
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_dense_zero.bin")
          .string();
  {
    util::BinaryWriter writer(path);
    writer.write_u64(0);  // in
    writer.write_u64(2);  // out
    writer.write_string("relu");
  }
  util::BinaryReader reader(path);
  EXPECT_THROW(Dense::load(reader), std::runtime_error);
  std::remove(path.c_str());
}

TEST(OptimizerTest, SgdStepDirection) {
  std::vector<double> param{1.0};
  std::vector<double> grad{2.0};
  Sgd sgd(0.1);
  sgd.register_parameters({param.data(), grad.data(), 1});
  sgd.step();
  EXPECT_DOUBLE_EQ(param[0], 1.0 - 0.1 * 2.0);
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  std::vector<double> param{0.0};
  std::vector<double> grad{1.0};
  Sgd sgd(0.1, 0.9);
  sgd.register_parameters({param.data(), grad.data(), 1});
  sgd.step();  // v = -0.1, param = -0.1
  sgd.step();  // v = -0.19, param = -0.29
  EXPECT_NEAR(param[0], -0.29, 1e-12);
}

TEST(OptimizerTest, AdamFirstStepIsLearningRateSized) {
  std::vector<double> param{1.0};
  std::vector<double> grad{0.5};
  Adam adam(0.01);
  adam.register_parameters({param.data(), grad.data(), 1});
  adam.step();
  // Bias-corrected first Adam step has magnitude ~lr regardless of |grad|.
  EXPECT_NEAR(param[0], 1.0 - 0.01, 1e-6);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  std::vector<double> param{5.0};
  std::vector<double> grad{0.0};
  Adam adam(0.1);
  adam.register_parameters({param.data(), grad.data(), 1});
  for (int i = 0; i < 500; ++i) {
    grad[0] = 2.0 * param[0];  // d/dx x^2
    adam.step();
  }
  EXPECT_NEAR(param[0], 0.0, 1e-2);
}

// The textbook scalar Adam, element by element in registration order: the
// oracle the chunked, vectorized, pool-split nn::Adam must match bit for bit.
class ScalarAdam {
 public:
  explicit ScalarAdam(double lr) : lr_(lr) {}

  void register_parameters(ParamView view) {
    views_.push_back(view);
    m_.emplace_back(view.size, 0.0);
    v_.emplace_back(view.size, 0.0);
  }

  void step() {
    ++t_;
    const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t k = 0; k < views_.size(); ++k) {
      auto& view = views_[k];
      auto& m = m_[k];
      auto& v = v_[k];
      for (std::size_t i = 0; i < view.size; ++i) {
        const double g = view.grad[i];
        m[i] = beta1_ * m[i] + (1.0 - beta1_) * g;
        v[i] = beta2_ * v[i] + (1.0 - beta2_) * g * g;
        const double m_hat = m[i] / bias1;
        const double v_hat = v[i] / bias2;
        view.param[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
      }
    }
  }

 private:
  double lr_;
  double beta1_ = 0.9;
  double beta2_ = 0.999;
  double epsilon_ = 1e-8;
  std::size_t t_ = 0;
  std::vector<ParamView> views_;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

// Runs `steps` Adam steps over views of the given sizes through nn::Adam and
// the scalar oracle on identical parameters and gradients, then compares
// every parameter bit for bit.  Gradients change every step and span many
// magnitudes (exact zeros included), so the first and second moments, the
// bias corrections and the epsilon guard all take part.
void expect_adam_matches_oracle(const std::vector<std::size_t>& sizes,
                                std::size_t steps) {
  util::Rng rng(321);
  std::vector<std::vector<double>> params(sizes.size()), grads(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    params[k].resize(sizes[k]);
    grads[k].resize(sizes[k]);
    for (auto& p : params[k]) p = rng.gaussian();
  }
  auto oracle_params = params;

  Adam adam(1e-3);
  ScalarAdam oracle(1e-3);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    adam.register_parameters({params[k].data(), grads[k].data(), sizes[k]});
    oracle.register_parameters(
        {oracle_params[k].data(), grads[k].data(), sizes[k]});
  }
  const double scales[] = {1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3, 0.0};
  for (std::size_t step = 0; step < steps; ++step) {
    for (auto& grad : grads) {
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] = rng.gaussian() * scales[(i + 3 * step) % 7];
      }
    }
    adam.step();
    oracle.step();
  }
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    for (std::size_t i = 0; i < sizes[k]; ++i) {
      ASSERT_EQ(params[k][i], oracle_params[k][i])
          << "view " << k << " (size " << sizes[k] << ") element " << i;
    }
  }
}

// View sizes: empty, single, a short vector tail, one below and one above a
// chunk edge, and the shipped VAE's parameter count; alone (so a view is
// split across pool tasks) and registered together (so chunks straddle
// view boundaries).
const std::vector<std::size_t> kAdamViewSizes = {
    0, 1, 7, Adam::kChunk - 1, Adam::kChunk + 1, 263000};

TEST(OptimizerParityTest, AdamMatchesScalarOracleOnMainThread) {
  for (const std::size_t size : kAdamViewSizes) {
    if (size == 263000) continue;  // covered by the combined run below
    expect_adam_matches_oracle({size}, 50);
  }
  expect_adam_matches_oracle(kAdamViewSizes, 50);
}

TEST(OptimizerParityTest, AdamMatchesScalarOracleInsidePoolTask) {
  // Inside a global-pool task the chunk fan-out runs inline, one chunk
  // after another on this worker; the bits must not change.
  util::ThreadPool::global()
      .submit([] {
        for (const std::size_t size : kAdamViewSizes) {
          if (size == 263000) continue;
          expect_adam_matches_oracle({size}, 50);
        }
        expect_adam_matches_oracle(kAdamViewSizes, 50);
      })
      .get();
}

TEST(TrainerTest, MakeBatchesPartitionsAllIndices) {
  util::Rng rng(9);
  const auto batches = make_batches(103, 32, rng);
  EXPECT_EQ(batches.size(), 4u);
  std::vector<bool> seen(103, false);
  for (const auto& batch : batches) {
    for (const auto i : batch) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(TrainerTest, EarlyStoppingTriggersAfterPatience) {
  EarlyStopping stopper(2);
  EXPECT_FALSE(stopper.update(1.0));
  EXPECT_FALSE(stopper.update(0.9));   // improved
  EXPECT_FALSE(stopper.update(0.95));  // 1 without improvement
  EXPECT_TRUE(stopper.update(0.99));   // 2 without improvement
  EXPECT_DOUBLE_EQ(stopper.best(), 0.9);
}

TEST(TrainerTest, EarlyStoppingDisabledNeverStops) {
  EarlyStopping stopper(0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(stopper.update(1.0 + i));
}

TEST(TrainerTest, AutoencoderLearnsLowRankData) {
  // Data on a 1-D manifold embedded in 4-D: x = [t, 2t, -t, 0.5t].
  util::Rng rng(10);
  Matrix data(64, 4);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double t = rng.uniform(-1.0, 1.0);
    data(r, 0) = t;
    data(r, 1) = 2 * t;
    data(r, 2) = -t;
    data(r, 3) = 0.5 * t;
  }
  Mlp autoencoder(4, {{8, Activation::Tanh}, {1, Activation::Linear},
                      {8, Activation::Tanh}, {4, Activation::Linear}}, rng);
  TrainOptions options;
  options.epochs = 300;
  options.batch_size = 16;
  options.learning_rate = 5e-3;
  const TrainHistory history = fit_reconstruction(autoencoder, data, options);
  ASSERT_FALSE(history.train_loss.empty());
  EXPECT_LT(history.train_loss.back(), history.train_loss.front() * 0.1);
  EXPECT_LT(history.train_loss.back(), 0.02);
}

// Regression for the ragged-batch epoch-loss bug (the VAE fit's twin in
// vae_test.cpp): a 33-row epoch at batch size 16 runs batches of 16, 16 and
// 1 rows, and the epoch loss must weight each per-batch mean by its rows.
// With learning_rate 0 every Adam step is an exact no-op, so the epoch can
// be replicated by hand against the initial weights.
TEST(TrainerTest, EpochLossIsRowWeightedAcrossRaggedBatches) {
  const std::size_t rows = 33;
  util::Rng data_rng(12);
  Matrix data(rows, 5);
  for (std::size_t i = 0; i < data.size(); ++i) data.data()[i] = data_rng.gaussian();
  Mlp model(5, {{7, Activation::ReLU}, {5, Activation::Linear}}, data_rng);
  const Mlp initial = model;

  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  options.learning_rate = 0.0;
  options.seed = 13;
  const TrainHistory history = fit_reconstruction(model, data, options);
  ASSERT_EQ(history.train_loss.size(), 1u);

  // fit_reconstruction's RNG order: the permutation (drawn even with no
  // validation split), then the epoch's batch shuffle.
  util::Rng rng(options.seed);
  const auto perm = rng.permutation(rows);
  const Matrix train = data.select_rows(perm);
  const auto batches = make_batches(rows, options.batch_size, rng);
  ASSERT_EQ(batches.size(), 3u);
  double weighted = 0.0;
  double unweighted = 0.0;
  for (const auto& batch : batches) {
    const Matrix x = train.select_rows(batch);
    const double loss = mse_loss(initial.forward_inference(x), x);
    weighted += loss * static_cast<double>(x.rows());
    unweighted += loss;
  }
  EXPECT_DOUBLE_EQ(history.train_loss[0], weighted / static_cast<double>(rows));
  EXPECT_NE(history.train_loss[0],
            unweighted / static_cast<double>(batches.size()));
}

TEST(TrainerTest, ValidationSplitAndEarlyStoppingRecorded) {
  util::Rng rng(11);
  Matrix data(40, 3);
  for (std::size_t i = 0; i < data.size(); ++i) data.data()[i] = rng.gaussian();
  Mlp model(3, {{4, Activation::ReLU}, {3, Activation::Linear}}, rng);
  TrainOptions options;
  options.epochs = 50;
  options.validation_split = 0.25;
  options.early_stopping_patience = 3;
  const TrainHistory history = fit_reconstruction(model, data, options);
  EXPECT_EQ(history.validation_loss.size(), history.epochs_run);
  EXPECT_LE(history.epochs_run, 50u);
}

}  // namespace
}  // namespace prodigy::nn
