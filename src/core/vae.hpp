// Variational autoencoder (paper §3.3) with manual backpropagation through
// the reparameterization trick:
//   q(z|x) = N(mu(x), diag(exp(logvar(x)))),  z = mu + exp(logvar/2) * eps,
//   loss   = E[recon(x, xhat)] + kl_weight * KL(q(z|x) || N(0, I)).
#pragma once

#include "nn/inference_plan.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "util/serialize.hpp"

#include <memory>
#include <string>
#include <vector>

namespace prodigy::core {

enum class ReconLoss { Mse, Mae };

struct VaeConfig {
  std::size_t input_dim = 0;  // set from the data at construction/fit
  std::vector<std::size_t> encoder_hidden = {64, 32};
  std::size_t latent_dim = 8;
  nn::Activation hidden_activation = nn::Activation::ReLU;
  double kl_weight = 1.0;
  ReconLoss recon_loss = ReconLoss::Mse;
  std::uint64_t seed = 7;
};

class VariationalAutoencoder {
 public:
  VariationalAutoencoder() = default;
  explicit VariationalAutoencoder(const VaeConfig& config);

  const VaeConfig& config() const noexcept { return config_; }
  std::size_t parameter_count() const noexcept;

  /// Trains on (assumed-healthy) data.  Returns per-epoch total loss; the
  /// validation split is driven by options.validation_split.
  nn::TrainHistory fit(const tensor::Matrix& X, const nn::TrainOptions& options);

  /// Posterior mean of the latent code.
  tensor::Matrix encode_mean(const tensor::Matrix& X) const;

  /// Deterministic reconstruction through the posterior mean (z = mu).
  /// Throws std::logic_error on a default-constructed VAE (no plan yet).
  tensor::Matrix reconstruct(const tensor::Matrix& X) const;

  /// Per-sample mean absolute reconstruction error (the paper's anomaly
  /// score, §3.3-3.4).  Runs through the fused encoder→mu→decoder
  /// InferencePlan, bit-identical to the layer-by-layer forward pass
  /// (parity-tested with EXPECT_EQ).  Throws std::logic_error on a
  /// default-constructed VAE.
  std::vector<double> reconstruction_error(const tensor::Matrix& X) const;

  /// The active fused plan (never null after construction/fit/load).
  std::shared_ptr<const nn::InferencePlan> inference_plan() const noexcept {
    return plan_;
  }

  // Component access (read-only): used by the fused-plan parity tests and
  // the training-loss replication test.
  const nn::Mlp& encoder() const noexcept { return encoder_; }
  const nn::Dense& mu_head() const noexcept { return mu_head_; }
  const nn::Dense& logvar_head() const noexcept { return logvar_head_; }
  const nn::Mlp& decoder() const noexcept { return decoder_; }

  /// Draws n new samples from the prior through the decoder (generative use).
  tensor::Matrix sample(std::size_t n, util::Rng& rng) const;

  /// Total loss (recon + kl_weight * KL) on a dataset, stochastic pass.
  double evaluate_loss(const tensor::Matrix& X, util::Rng& rng) const;

  void save(util::BinaryWriter& writer) const;
  static VariationalAutoencoder load(util::BinaryReader& reader);

 private:
  struct StepResult {
    double recon = 0.0;
    double kl = 0.0;
  };
  /// One step's forward and backward over a batch; overwrites every
  /// layer's parameter gradients.
  StepResult forward_backward(const tensor::Matrix& x, util::Rng& rng);
  /// Repacks the fused plan from the current parameters.
  void build_inference_plan();
  /// The fused plan; throws std::logic_error before one is built.
  const nn::InferencePlan& fused_plan() const;

  VaeConfig config_;
  nn::Mlp encoder_;        // input -> last hidden
  nn::Dense mu_head_;      // hidden -> latent (linear)
  nn::Dense logvar_head_;  // hidden -> latent (linear)
  nn::Mlp decoder_;        // latent -> ... -> input (linear output)
  // Fused encoder→mu→decoder plan for the scoring paths.  shared_ptr so
  // copies of the VAE (ModelBundle, OnlineScorer) share the immutable packed
  // weights; rebuilt whenever the parameters change (ctor, fit, load).
  std::shared_ptr<const nn::InferencePlan> plan_;
};

}  // namespace prodigy::core
