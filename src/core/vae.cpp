#include "core/vae.hpp"

#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prodigy::core {

namespace {

constexpr std::uint64_t kVaeMagic = 0x50524f5456414531ULL;  // "PROTVAE1"
constexpr double kLogvarClamp = 10.0;

std::vector<nn::LayerSpec> hidden_specs(const std::vector<std::size_t>& sizes,
                                        nn::Activation act) {
  std::vector<nn::LayerSpec> specs;
  specs.reserve(sizes.size());
  for (const auto units : sizes) specs.push_back({units, act});
  return specs;
}

// Per-thread workspaces for the training step and the inference/score paths.
// Every matrix is capacity-reused across calls, so steady-state training and
// scoring allocate nothing; thread_local keeps concurrent scoring of a shared
// const model race-free.  These never alias the Mlp-internal ping-pong
// buffers (callers cannot reference those), so handing them to
// forward_inference_into is safe.
struct StepScratch {
  tensor::Matrix eps, sigma, z, grad_z, grad_mu, grad_logvar, grad_hidden,
      grad_hidden2;
};
struct InferScratch {
  tensor::Matrix h, mu, logvar, z, recon;
};

thread_local StepScratch step_scratch;
thread_local InferScratch infer_scratch;
thread_local InferScratch eval_scratch;

}  // namespace

VariationalAutoencoder::VariationalAutoencoder(const VaeConfig& config)
    : config_(config) {
  if (config.input_dim == 0) {
    throw std::invalid_argument("VariationalAutoencoder: input_dim must be set");
  }
  if (config.encoder_hidden.empty()) {
    throw std::invalid_argument("VariationalAutoencoder: need >= 1 hidden layer");
  }
  util::Rng rng(config.seed);

  encoder_ = nn::Mlp(config.input_dim,
                     hidden_specs(config.encoder_hidden, config.hidden_activation), rng);
  const std::size_t hidden_out = config.encoder_hidden.back();
  mu_head_ = nn::Dense(hidden_out, config.latent_dim, nn::Activation::Linear, rng);
  logvar_head_ = nn::Dense(hidden_out, config.latent_dim, nn::Activation::Linear, rng);

  // Mirrored decoder: latent -> reversed hidden -> input (linear output).
  std::vector<std::size_t> decoder_sizes(config.encoder_hidden.rbegin(),
                                         config.encoder_hidden.rend());
  auto specs = hidden_specs(decoder_sizes, config.hidden_activation);
  specs.push_back({config.input_dim, nn::Activation::Linear});
  decoder_ = nn::Mlp(config.latent_dim, specs, rng);

  build_inference_plan();
}

void VariationalAutoencoder::build_inference_plan() {
  nn::InferencePlan::Builder builder;
  builder.add(encoder_).add(mu_head_).add(decoder_);
  plan_ = std::make_shared<const nn::InferencePlan>(builder.build());
}

std::size_t VariationalAutoencoder::parameter_count() const noexcept {
  return encoder_.parameter_count() + mu_head_.parameter_count() +
         logvar_head_.parameter_count() + decoder_.parameter_count();
}

VariationalAutoencoder::StepResult VariationalAutoencoder::forward_backward(
    const tensor::Matrix& x, util::Rng& rng) {
  StepScratch& s = step_scratch;

  // Forward.  Layer outputs are references into layer-owned workspaces; the
  // inputs they view (x, hidden, s.z) all stay alive through the backward
  // pass below.
  const tensor::Matrix& hidden = encoder_.forward(x);
  const tensor::Matrix& mu = mu_head_.forward(hidden);
  const tensor::Matrix& logvar = logvar_head_.forward(hidden);

  s.eps.resize_for_overwrite(mu.rows(), mu.cols());
  for (std::size_t i = 0; i < s.eps.size(); ++i) s.eps.data()[i] = rng.gaussian();

  s.z = mu;
  s.sigma.resize_for_overwrite(mu.rows(), mu.cols());
  for (std::size_t i = 0; i < s.z.size(); ++i) {
    const double lv = std::clamp(logvar.data()[i], -kLogvarClamp, kLogvarClamp);
    s.sigma.data()[i] = std::exp(0.5 * lv);
    s.z.data()[i] += s.sigma.data()[i] * s.eps.data()[i];
  }

  const tensor::Matrix& reconstruction = decoder_.forward(s.z);

  // Losses.
  const nn::LossResult recon = config_.recon_loss == ReconLoss::Mse
                                   ? nn::mse_loss(reconstruction, x)
                                   : nn::mae_loss(reconstruction, x);
  const nn::KlResult kl = nn::gaussian_kl(mu, logvar);

  // Backward through decoder to the latent sample.
  decoder_.backward_into(recon.grad, s.grad_z);

  // Reparameterization: dL/dmu = dL/dz ; dL/dlogvar = dL/dz * 0.5*sigma*eps.
  s.grad_mu = s.grad_z;
  s.grad_logvar.resize_for_overwrite(s.grad_z.rows(), s.grad_z.cols());
  for (std::size_t i = 0; i < s.grad_z.size(); ++i) {
    s.grad_logvar.data()[i] =
        s.grad_z.data()[i] * 0.5 * s.sigma.data()[i] * s.eps.data()[i];
  }
  // Plus the KL term's direct gradients.
  for (std::size_t i = 0; i < s.grad_mu.size(); ++i) {
    s.grad_mu.data()[i] += config_.kl_weight * kl.grad_mu.data()[i];
    s.grad_logvar.data()[i] += config_.kl_weight * kl.grad_logvar.data()[i];
  }

  // Backward through the two heads into the shared encoder trunk, which
  // stops at its parameter gradients: dL/dx of the data is never read.
  mu_head_.backward_into(s.grad_mu, s.grad_hidden);
  logvar_head_.backward_into(s.grad_logvar, s.grad_hidden2);
  s.grad_hidden += s.grad_hidden2;
  encoder_.backward_params(s.grad_hidden);

  return {recon.value, kl.value};
}

nn::TrainHistory VariationalAutoencoder::fit(const tensor::Matrix& X,
                                             const nn::TrainOptions& options) {
  util::StageTimer fit_stage("core.vae.fit");
  if (X.cols() != config_.input_dim) {
    throw std::invalid_argument("VariationalAutoencoder::fit: input width " +
                                std::to_string(X.cols()) + " != configured " +
                                std::to_string(config_.input_dim));
  }
  util::Rng rng(options.seed);
  nn::TrainHistory history;

  // Validation carve-out (the paper uses an 80-20 train/validation split of
  // the healthy samples to pick the operating threshold).
  const auto perm = rng.permutation(X.rows());
  std::size_t val_count = 0;
  if (options.validation_split > 0.0 && X.rows() >= 4) {
    val_count = std::min<std::size_t>(
        static_cast<std::size_t>(options.validation_split * static_cast<double>(X.rows())),
        X.rows() - 1);
  }
  const std::size_t train_count = X.rows() - val_count;
  const tensor::Matrix train = X.select_rows(
      {perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(train_count)});
  const tensor::Matrix validation = X.select_rows(
      {perm.begin() + static_cast<std::ptrdiff_t>(train_count), perm.end()});

  nn::Adam optimizer(options.learning_rate);
  encoder_.register_with(optimizer);
  optimizer.register_parameters({mu_head_.weights().data(),
                                 mu_head_.weight_grad().data(),
                                 mu_head_.weights().size()});
  optimizer.register_parameters({mu_head_.bias().data(), mu_head_.bias_grad().data(),
                                 mu_head_.bias().size()});
  optimizer.register_parameters({logvar_head_.weights().data(),
                                 logvar_head_.weight_grad().data(),
                                 logvar_head_.weights().size()});
  optimizer.register_parameters({logvar_head_.bias().data(),
                                 logvar_head_.bias_grad().data(),
                                 logvar_head_.bias().size()});
  decoder_.register_with(optimizer);

  nn::EarlyStopping stopper(options.early_stopping_patience);
  util::Rng eval_rng(options.seed ^ 0xabcdef);

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::size_t epoch_rows = 0;
    for (const auto& batch : nn::make_batches(train.rows(), options.batch_size, rng)) {
      const tensor::Matrix x = train.select_rows(batch);
      encoder_.zero_gradients();
      mu_head_.zero_gradients();
      logvar_head_.zero_gradients();
      decoder_.zero_gradients();
      const StepResult step = forward_backward(x, rng);
      optimizer.step();
      // Row-weighted epoch loss: forward_backward returns per-batch *means*,
      // so the ragged final batch of a non-divisible epoch must contribute
      // proportionally to its row count, or train_loss is skewed against
      // validation_loss (which is a plain mean over all rows).
      epoch_loss +=
          (step.recon + config_.kl_weight * step.kl) * static_cast<double>(x.rows());
      epoch_rows += x.rows();
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, epoch_rows));
    history.train_loss.push_back(epoch_loss);
    ++history.epochs_run;
    util::MetricsRegistry::global().counter("prodigy_vae_epochs_total").increment();

    if (val_count > 0) {
      const double val_loss = evaluate_loss(validation, eval_rng);
      history.validation_loss.push_back(val_loss);
      if (stopper.update(val_loss)) {
        history.stopped_early = true;
        util::MetricsRegistry::global()
            .counter("prodigy_vae_early_stops_total")
            .increment();
        util::MetricsRegistry::global()
            .gauge("prodigy_vae_last_early_stop_epoch")
            .set(static_cast<double>(epoch));
        break;
      }
    }
    if (options.verbose && epoch % 100 == 0) {
      util::log_info("VAE epoch ", epoch, " loss ", epoch_loss);
    }
  }
  // Repack the fused plan from the trained weights.
  build_inference_plan();
  return history;
}

tensor::Matrix VariationalAutoencoder::encode_mean(const tensor::Matrix& X) const {
  InferScratch& s = infer_scratch;
  encoder_.forward_inference_into(X, s.h);
  return mu_head_.forward_inference(s.h);
}

const nn::InferencePlan& VariationalAutoencoder::fused_plan() const {
  if (!plan_) {
    throw std::logic_error("VariationalAutoencoder: score before fit");
  }
  return *plan_;
}

tensor::Matrix VariationalAutoencoder::reconstruct(const tensor::Matrix& X) const {
  tensor::Matrix out;
  fused_plan().run(X, out);
  return out;
}

std::vector<double> VariationalAutoencoder::reconstruction_error(
    const tensor::Matrix& X) const {
  // The anomaly-score hot path: one fused sweep through the packed
  // encoder→mu→decoder plan into per-thread scratch — zero matrix
  // allocations once a thread has warmed up, and bit-identical to the
  // layer-by-layer forward pass.
  InferScratch& s = infer_scratch;
  fused_plan().run(X, s.recon);
  return tensor::rowwise_mean_abs_error(X, s.recon);
}

tensor::Matrix VariationalAutoencoder::sample(std::size_t n, util::Rng& rng) const {
  tensor::Matrix z(n, config_.latent_dim);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.gaussian();
  return decoder_.forward_inference(z);
}

double VariationalAutoencoder::evaluate_loss(const tensor::Matrix& X,
                                             util::Rng& rng) const {
  InferScratch& s = eval_scratch;
  encoder_.forward_inference_into(X, s.h);
  mu_head_.forward_inference_into(s.h, s.mu);
  logvar_head_.forward_inference_into(s.h, s.logvar);

  s.z = s.mu;
  for (std::size_t i = 0; i < s.z.size(); ++i) {
    const double lv = std::clamp(s.logvar.data()[i], -kLogvarClamp, kLogvarClamp);
    s.z.data()[i] += std::exp(0.5 * lv) * rng.gaussian();
  }
  decoder_.forward_inference_into(s.z, s.recon);
  const double recon = config_.recon_loss == ReconLoss::Mse
                           ? nn::mse_loss(s.recon, X).value
                           : nn::mae_loss(s.recon, X).value;
  return recon + config_.kl_weight * nn::gaussian_kl(s.mu, s.logvar).value;
}

void VariationalAutoencoder::save(util::BinaryWriter& writer) const {
  writer.write_magic(kVaeMagic, 1);
  writer.write_u64(config_.input_dim);
  writer.write_u64(config_.latent_dim);
  writer.write_u64(config_.encoder_hidden.size());
  for (const auto units : config_.encoder_hidden) writer.write_u64(units);
  writer.write_string(nn::to_string(config_.hidden_activation));
  writer.write_f64(config_.kl_weight);
  writer.write_u64(config_.recon_loss == ReconLoss::Mse ? 0 : 1);
  writer.write_u64(config_.seed);
  encoder_.save(writer);
  mu_head_.save(writer);
  logvar_head_.save(writer);
  decoder_.save(writer);
}

VariationalAutoencoder VariationalAutoencoder::load(util::BinaryReader& reader) {
  reader.expect_magic(kVaeMagic, 1);
  VariationalAutoencoder vae;
  vae.config_.input_dim = reader.read_u64();
  vae.config_.latent_dim = reader.read_u64();
  const auto hidden_count = reader.read_u64();
  vae.config_.encoder_hidden.clear();
  for (std::uint64_t i = 0; i < hidden_count; ++i) {
    vae.config_.encoder_hidden.push_back(reader.read_u64());
  }
  vae.config_.hidden_activation = nn::activation_from_string(reader.read_string());
  vae.config_.kl_weight = reader.read_f64();
  vae.config_.recon_loss = reader.read_u64() == 0 ? ReconLoss::Mse : ReconLoss::Mae;
  vae.config_.seed = reader.read_u64();
  vae.encoder_ = nn::Mlp::load(reader);
  vae.mu_head_ = nn::Dense::load(reader);
  vae.logvar_head_ = nn::Dense::load(reader);
  vae.decoder_ = nn::Mlp::load(reader);

  // Cross-validate the loaded components against the header config: a
  // corrupted or truncated-and-spliced file must fail here with a dimension
  // message, not later as a GEMM shape error (or a silently wrong score).
  const auto check = [](bool ok, const std::string& what) {
    if (!ok) {
      throw std::runtime_error("VariationalAutoencoder::load: " + what +
                               "; model file is corrupt");
    }
  };
  const auto& cfg = vae.config_;
  check(cfg.input_dim > 0, "input_dim is 0");
  check(cfg.latent_dim > 0, "latent_dim is 0");
  check(!cfg.encoder_hidden.empty(), "no encoder hidden layers");
  check(vae.encoder_.input_dim() == cfg.input_dim,
        "encoder input dim " + std::to_string(vae.encoder_.input_dim()) +
            " != config input_dim " + std::to_string(cfg.input_dim));
  check(vae.encoder_.layer_count() == cfg.encoder_hidden.size(),
        "encoder has " + std::to_string(vae.encoder_.layer_count()) +
            " layers, config lists " +
            std::to_string(cfg.encoder_hidden.size()));
  for (std::size_t i = 0; i < cfg.encoder_hidden.size(); ++i) {
    check(vae.encoder_.layer(i).out_features() == cfg.encoder_hidden[i],
          "encoder layer " + std::to_string(i) + " width " +
              std::to_string(vae.encoder_.layer(i).out_features()) +
              " != config encoder_hidden " +
              std::to_string(cfg.encoder_hidden[i]));
  }
  const std::size_t hidden_out = cfg.encoder_hidden.back();
  check(vae.mu_head_.in_features() == hidden_out,
        "mu head input dim " + std::to_string(vae.mu_head_.in_features()) +
            " != encoder_hidden.back() " + std::to_string(hidden_out));
  check(vae.mu_head_.out_features() == cfg.latent_dim,
        "mu head output dim " + std::to_string(vae.mu_head_.out_features()) +
            " != latent_dim " + std::to_string(cfg.latent_dim));
  check(vae.logvar_head_.in_features() == hidden_out,
        "logvar head input dim " +
            std::to_string(vae.logvar_head_.in_features()) +
            " != encoder_hidden.back() " + std::to_string(hidden_out));
  check(vae.logvar_head_.out_features() == cfg.latent_dim,
        "logvar head output dim " +
            std::to_string(vae.logvar_head_.out_features()) +
            " != latent_dim " + std::to_string(cfg.latent_dim));
  check(vae.decoder_.input_dim() == cfg.latent_dim,
        "decoder input dim " + std::to_string(vae.decoder_.input_dim()) +
            " != latent_dim " + std::to_string(cfg.latent_dim));
  check(vae.decoder_.output_dim() == cfg.input_dim,
        "decoder output dim " + std::to_string(vae.decoder_.output_dim()) +
            " != input_dim " + std::to_string(cfg.input_dim));

  vae.build_inference_plan();
  return vae;
}

}  // namespace prodigy::core
