#include "baselines/usad.hpp"

#include "eval/metrics.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prodigy::baselines {

void Usad::fit(const tensor::Matrix& X, const std::vector<int>& labels) {
  if (X.rows() != labels.size()) {
    throw std::invalid_argument("Usad::fit: rows != labels");
  }
  std::vector<std::size_t> healthy;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 0) healthy.push_back(i);
  }
  if (healthy.empty()) throw std::invalid_argument("Usad::fit: no healthy samples");
  fit_healthy(X.select_rows(healthy));
}

void Usad::fit_healthy(const tensor::Matrix& X) {
  if (X.rows() == 0) throw std::invalid_argument("Usad::fit_healthy: empty data");
  UsadConfig config = config_;
  if (config.input_dim == 0) config.input_dim = X.cols();

  util::Rng rng(config.train.seed);
  const nn::Activation act = nn::Activation::ReLU;
  nets_.emplace(Nets{
      nn::Mlp(config.input_dim, {{config.hidden, act}, {config.latent, act}}, rng),
      nn::Mlp(config.latent,
              {{config.hidden, act}, {config.input_dim, nn::Activation::Linear}}, rng),
      nn::Mlp(config.latent,
              {{config.hidden, act}, {config.input_dim, nn::Activation::Linear}}, rng),
  });
  auto& [encoder, decoder1, decoder2] = *nets_;

  // Two optimizers, the shared encoder registered with both — mirroring the
  // reference implementation's alternating optimization.
  nn::Adam opt1(config.train.learning_rate);
  encoder.register_with(opt1);
  decoder1.register_with(opt1);
  nn::Adam opt2(config.train.learning_rate);
  encoder.register_with(opt2);
  decoder2.register_with(opt2);

  auto zero_all = [&] {
    encoder.zero_gradients();
    decoder1.zero_gradients();
    decoder2.zero_gradients();
  };

  // Global-norm gradient clipping: the maximization term of L_AE2 is
  // unbounded, so without clipping the adversarial phase can blow the
  // decoders up once (1 - 1/n) dominates.
  constexpr double kMaxGradNorm = 5.0;
  auto clip_all = [&] {
    double norm_sq = 0.0;
    auto accumulate = [&norm_sq](nn::Mlp& net) {
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        for (const double g : net.layer(l).weight_grad().storage()) norm_sq += g * g;
        for (const double g : net.layer(l).bias_grad()) norm_sq += g * g;
      }
    };
    accumulate(encoder);
    accumulate(decoder1);
    accumulate(decoder2);
    const double norm = std::sqrt(norm_sq);
    if (norm <= kMaxGradNorm) return;
    const double scale = kMaxGradNorm / norm;
    auto rescale = [scale](nn::Mlp& net) {
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        net.layer(l).weight_grad() *= scale;
        for (double& g : net.layer(l).bias_grad()) g *= scale;
      }
    };
    rescale(encoder);
    rescale(decoder1);
    rescale(decoder2);
  };

  history_ = nn::TrainHistory{};
  // The step's batch, AE1's output, the loss gradient and the decoder's
  // input gradient, reused across steps.
  tensor::Matrix x, latent, w1, grad, grad_latent;
  // AE1's reconstruction of the batch, gradient stopped: the adversarial
  // terms treat it as data.
  const auto reconstruct_ae1 = [&] {
    encoder.forward_inference_into(x, latent);
    decoder1.forward_inference_into(latent, w1);
  };
  for (std::size_t epoch = 0; epoch < config.train.epochs; ++epoch) {
    const double n = static_cast<double>(epoch + 1);
    const double w_direct = 1.0 / n;
    const double w_adv = 1.0 - 1.0 / n;
    double epoch_loss = 0.0;
    std::size_t epoch_rows = 0;

    for (const auto& batch : nn::make_batches(X.rows(), config.train.batch_size, rng)) {
      X.select_rows_into(batch, x);

      // ---- Phase 1: update encoder + decoder1 on L_AE1. ----
      zero_all();
      // Direct term: 1/n * ||x - D1(E(x))||^2.
      {
        const double loss = nn::mse_loss(decoder1.forward(encoder.forward(x)), x, &grad);
        grad *= w_direct;
        decoder1.backward_into(grad, grad_latent);
        encoder.backward_params(grad_latent);
        epoch_loss += w_direct * loss * static_cast<double>(x.rows());
      }
      // Adversarial term: (1-1/n) * ||x - D2(E(w1))||^2.
      {
        reconstruct_ae1();
        const double loss = nn::mse_loss(decoder2.forward(encoder.forward(w1)), x, &grad);
        grad *= w_adv;
        decoder2.backward_into(grad, grad_latent);
        encoder.backward_params(grad_latent);
        epoch_loss += w_adv * loss * static_cast<double>(x.rows());
        // decoder2's accumulated gradients are not in opt1 -> inert.
      }
      clip_all();
      opt1.step();

      // ---- Phase 2: update encoder + decoder2 on L_AE2. ----
      zero_all();
      // Direct term: 1/n * ||x - D2(E(x))||^2.
      {
        nn::mse_loss(decoder2.forward(encoder.forward(x)), x, &grad);
        grad *= w_direct;
        decoder2.backward_into(grad, grad_latent);
        encoder.backward_params(grad_latent);
      }
      // Adversarial term: -(1-1/n) * ||x - D2(E(w1))||^2 (decoder2 learns to
      // *fail* to reconstruct AE1's output, isolating anomalies).
      {
        reconstruct_ae1();
        nn::mse_loss(decoder2.forward(encoder.forward(w1)), x, &grad);
        grad *= -w_adv;
        decoder2.backward_into(grad, grad_latent);
        encoder.backward_params(grad_latent);
      }
      clip_all();
      opt2.step();
      epoch_rows += x.rows();
    }
    // Per-batch means weighted by rows, so a ragged tail batch counts for its
    // rows rather than as much as a full batch.
    history_.train_loss.push_back(
        epoch_loss / static_cast<double>(std::max<std::size_t>(1, epoch_rows)));
    ++history_.epochs_run;
  }

  const auto scores = score(X);
  threshold_ = tensor::quantile(scores, config_.threshold_percentile / 100.0);
}

std::vector<double> Usad::score(const tensor::Matrix& X) const {
  if (!nets_) throw std::logic_error("Usad::score before fit");
  const auto& [encoder, decoder1, decoder2] = *nets_;
  // Per-thread scratch keeps repeated scoring allocation-free (and concurrent
  // scoring of a shared const model safe); none of these alias the
  // Mlp-internal inference buffers.
  thread_local struct {
    tensor::Matrix latent, w1, latent2, w3;
  } s;
  encoder.forward_inference_into(X, s.latent);
  decoder1.forward_inference_into(s.latent, s.w1);
  encoder.forward_inference_into(s.w1, s.latent2);
  decoder2.forward_inference_into(s.latent2, s.w3);
  const auto direct = tensor::rowwise_mean_squared_error(X, s.w1);
  const auto adversarial = tensor::rowwise_mean_squared_error(X, s.w3);
  std::vector<double> scores(X.rows());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = config_.alpha * direct[i] + config_.beta * adversarial[i];
  }
  return scores;
}

std::vector<int> Usad::predict(const tensor::Matrix& X) const {
  const auto scores = score(X);
  std::vector<int> predictions(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    predictions[i] = scores[i] > threshold_ ? 1 : 0;
  }
  return predictions;
}

void Usad::tune(const tensor::Matrix& X, const std::vector<int>& labels) {
  threshold_ = eval::best_threshold_by_f1(score(X), labels).best_threshold;
}

}  // namespace prodigy::baselines
