// The Prodigy anomaly detector (paper §3): a VAE trained on healthy samples
// with a reconstruction-error threshold set at a percentile (99th by
// default) of the healthy training errors.  Samples whose mean-absolute
// reconstruction error exceeds the threshold are flagged anomalous.
#pragma once

#include "core/detector_iface.hpp"
#include "core/vae.hpp"

#include <optional>

namespace prodigy::core {

struct ProdigyConfig {
  VaeConfig vae;               // input_dim may be 0; then set from the data
  nn::TrainOptions train;
  /// Percentile (0-100] of healthy training reconstruction errors.
  double threshold_percentile = 99.0;

  ProdigyConfig() {
    // Paper Table 3 optima: lr 1e-4, batch 256, epochs 2400.  The defaults
    // here are budget-scaled for single-core runs; the bench binaries expose
    // flags to restore paper values.
    train.learning_rate = 1e-4;
    train.batch_size = 64;
    train.epochs = 200;
    train.validation_split = 0.2;
    train.early_stopping_patience = 40;
  }
};

class ProdigyDetector final : public Detector {
 public:
  ProdigyDetector() = default;
  explicit ProdigyDetector(ProdigyConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "Prodigy"; }

  /// Trains on the healthy subset of X (rows with label 0), as §5.4.4:
  /// anomalous rows are removed before training.
  void fit(const tensor::Matrix& X, const std::vector<int>& labels) override;

  /// Trains on data assumed to be all healthy (deployment path).
  void fit_healthy(const tensor::Matrix& X);

  struct UnsupervisedFitReport {
    std::size_t rounds = 0;                       // refinement rounds executed
    std::vector<std::size_t> excluded_per_round;  // rows dropped each round
    std::size_t final_training_size = 0;
    std::vector<std::size_t> kept_indices;        // rows of X the final fit used
  };

  /// The paper's §7 "fully unsupervised pipeline" future-work direction:
  /// trains with NO labels on telemetry that may contain a small fraction of
  /// anomalous samples.  Iteratively trains, drops the `assumed_contamination`
  /// fraction with the highest reconstruction errors (self-labeling the most
  /// suspicious samples), and retrains on the remainder.
  UnsupervisedFitReport fit_unsupervised(const tensor::Matrix& X,
                                         double assumed_contamination = 0.05,
                                         std::size_t refinement_rounds = 2);

  std::vector<double> score(const tensor::Matrix& X) const override;
  std::vector<int> predict(const tensor::Matrix& X) const override;

  double threshold() const noexcept { return threshold_; }
  void set_threshold(double threshold) noexcept { threshold_ = threshold; }

  /// Paper §5.4.4: sweeps candidate thresholds (0..max_error, 1000 steps)
  /// on a labeled validation set and keeps the macro-F1 maximizer.
  double tune_threshold(const tensor::Matrix& X, const std::vector<int>& labels);

  void tune(const tensor::Matrix& X, const std::vector<int>& labels) override {
    tune_threshold(X, labels);
  }

  const VariationalAutoencoder& vae() const { return model_.value(); }
  const nn::TrainHistory& history() const noexcept { return history_; }
  const ProdigyConfig& config() const noexcept { return config_; }
  bool fitted() const noexcept { return model_.has_value(); }

  void save(util::BinaryWriter& writer) const;
  static ProdigyDetector load(util::BinaryReader& reader);

 private:
  ProdigyConfig config_;
  std::optional<VariationalAutoencoder> model_;
  nn::TrainHistory history_;
  double threshold_ = 0.0;
};

}  // namespace prodigy::core
