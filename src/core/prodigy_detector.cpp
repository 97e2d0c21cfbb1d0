#include "core/prodigy_detector.hpp"

#include "eval/metrics.hpp"
#include "tensor/stats.hpp"
#include "util/metrics.hpp"

#include <stdexcept>

namespace prodigy::core {

namespace {
constexpr std::uint64_t kDetectorMagic = 0x50524f4447593144ULL;  // "PRODGY1D"
}

void ProdigyDetector::fit(const tensor::Matrix& X, const std::vector<int>& labels) {
  if (X.rows() != labels.size()) {
    throw std::invalid_argument("ProdigyDetector::fit: rows != labels");
  }
  std::vector<std::size_t> healthy;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 0) healthy.push_back(i);
  }
  if (healthy.empty()) {
    throw std::invalid_argument("ProdigyDetector::fit: no healthy samples");
  }
  fit_healthy(X.select_rows(healthy));
}

void ProdigyDetector::fit_healthy(const tensor::Matrix& X) {
  util::StageTimer stage("core.prodigy_detector.fit");
  if (X.rows() == 0) {
    throw std::invalid_argument("ProdigyDetector::fit_healthy: empty training set");
  }
  VaeConfig vae_config = config_.vae;
  if (vae_config.input_dim == 0) vae_config.input_dim = X.cols();
  model_.emplace(vae_config);
  history_ = model_->fit(X, config_.train);

  // Threshold = percentile of healthy training reconstruction errors (§3.3).
  const auto errors = model_->reconstruction_error(X);
  threshold_ = tensor::quantile(errors, config_.threshold_percentile / 100.0);
}

ProdigyDetector::UnsupervisedFitReport ProdigyDetector::fit_unsupervised(
    const tensor::Matrix& X, double assumed_contamination,
    std::size_t refinement_rounds) {
  if (assumed_contamination < 0.0 || assumed_contamination >= 0.5) {
    throw std::invalid_argument(
        "fit_unsupervised: contamination must be in [0, 0.5)");
  }
  UnsupervisedFitReport report;
  std::vector<std::size_t> kept(X.rows());
  for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;

  // Screening rounds train briefly on purpose: an underfitted VAE has not
  // yet absorbed the rare anomalous modes, so their reconstruction errors
  // still stand out.  Only the final round trains to the full budget.  The
  // guard restores the configured budget even when a fit throws mid-loop;
  // without it an exception would leave the detector stuck at screen_epochs.
  struct EpochsGuard {
    nn::TrainOptions& options;
    std::size_t saved;
    ~EpochsGuard() { options.epochs = saved; }
  };
  const auto full_epochs = config_.train.epochs;
  const EpochsGuard epochs_guard{config_.train, full_epochs};
  const auto screen_epochs = std::max<std::size_t>(20, full_epochs / 4);

  for (std::size_t round = 0; round <= refinement_rounds; ++round) {
    const bool final_round =
        round == refinement_rounds || assumed_contamination == 0.0;
    config_.train.epochs = final_round ? full_epochs : screen_epochs;
    const tensor::Matrix current = X.select_rows(kept);
    fit_healthy(current);
    ++report.rounds;
    if (final_round) break;

    // Self-label: drop the most suspicious fraction and retrain.
    const auto errors = model_->reconstruction_error(current);
    const double cutoff = tensor::quantile(errors, 1.0 - assumed_contamination);
    std::vector<std::size_t> next;
    next.reserve(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (errors[i] <= cutoff) next.push_back(kept[i]);
    }
    report.excluded_per_round.push_back(kept.size() - next.size());
    if (next.size() == kept.size() || next.size() < 4) {
      // Converged (or would starve): skip straight to the final full fit.
      if (next.size() >= 4) kept = std::move(next);
      round = refinement_rounds - 1;
      continue;
    }
    kept = std::move(next);
  }
  report.final_training_size = kept.size();
  report.kept_indices = std::move(kept);
  return report;
}

std::vector<double> ProdigyDetector::score(const tensor::Matrix& X) const {
  if (!model_) throw std::logic_error("ProdigyDetector::score before fit");
  util::StageTimer stage("core.prodigy_detector.score");
  util::MetricsRegistry::global()
      .counter("prodigy_detector_samples_scored_total")
      .increment(X.rows());
  return model_->reconstruction_error(X);
}

std::vector<int> ProdigyDetector::predict(const tensor::Matrix& X) const {
  const auto errors = score(X);
  std::vector<int> predictions(errors.size());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    predictions[i] = errors[i] > threshold_ ? 1 : 0;
  }
  return predictions;
}

double ProdigyDetector::tune_threshold(const tensor::Matrix& X,
                                       const std::vector<int>& labels) {
  const auto search = eval::best_threshold_by_f1(score(X), labels);
  threshold_ = search.best_threshold;
  return search.best_macro_f1;
}

void ProdigyDetector::save(util::BinaryWriter& writer) const {
  if (!model_) throw std::logic_error("ProdigyDetector::save before fit");
  writer.write_magic(kDetectorMagic, 1);
  writer.write_f64(threshold_);
  writer.write_f64(config_.threshold_percentile);
  model_->save(writer);
}

ProdigyDetector ProdigyDetector::load(util::BinaryReader& reader) {
  reader.expect_magic(kDetectorMagic, 1);
  ProdigyDetector detector;
  detector.threshold_ = reader.read_f64();
  detector.config_.threshold_percentile = reader.read_f64();
  detector.model_ = VariationalAutoencoder::load(reader);
  // Repopulate the architecture config from the persisted model: otherwise a
  // later fit_healthy would train a fresh default-architecture VAE that
  // ignores the loaded input_dim/latent_dim/hidden layout.
  detector.config_.vae = detector.model_->config();
  return detector;
}

}  // namespace prodigy::core
