#include "baselines/detector_registry.hpp"

#include "baselines/gmm.hpp"
#include "baselines/heuristics.hpp"
#include "baselines/isolation_forest.hpp"
#include "baselines/kmeans.hpp"
#include "baselines/lof.hpp"
#include "baselines/pca.hpp"
#include "baselines/usad.hpp"
#include "core/prodigy_detector.hpp"

#include <stdexcept>
#include <utility>

namespace prodigy::baselines {

namespace {

core::ProdigyConfig prodigy_config(const DetectorOptions& options) {
  core::ProdigyConfig config;
  config.vae.encoder_hidden = options.vae_hidden;
  config.vae.latent_dim = options.vae_latent;
  config.train.epochs = options.epochs;
  config.train.batch_size = options.batch_size;
  config.train.learning_rate = options.learning_rate;
  config.train.validation_split = 0.0;
  config.train.early_stopping_patience = 0;
  return config;
}

baselines::UsadConfig usad_config(const DetectorOptions& options) {
  baselines::UsadConfig config;
  config.hidden = 96;  // paper Table 3: 200
  config.latent = 24;
  config.train.epochs = options.usad_epochs;
  config.train.batch_size = options.batch_size;
  config.train.learning_rate = options.learning_rate;
  return config;
}

DetectorRegistry built_in_registry() {
  DetectorRegistry registry;
  registry.register_detector("prodigy", "Prodigy", [](const DetectorOptions& o) {
    return std::make_unique<core::ProdigyDetector>(prodigy_config(o));
  });
  registry.register_detector("usad", "USAD", [](const DetectorOptions& o) {
    return std::make_unique<baselines::Usad>(usad_config(o));
  });
  registry.register_detector(
      "majority", "Majority Label Prediction", [](const DetectorOptions&) {
        return std::make_unique<baselines::MajorityLabelPrediction>();
      });
  registry.register_detector(
      "random", "Random Prediction", [](const DetectorOptions& o) {
        return std::make_unique<baselines::RandomPrediction>(o.seed);
      });
  registry.register_detector(
      "isolation-forest", "Isolation Forest", [](const DetectorOptions&) {
        return std::make_unique<baselines::IsolationForest>();
      });
  registry.register_detector(
      "lof", "Local Outlier Factor", [](const DetectorOptions&) {
        return std::make_unique<baselines::LocalOutlierFactor>();
      });
  registry.register_detector("kmeans", "K-means", [](const DetectorOptions&) {
    return std::make_unique<baselines::KMeansDetector>();
  });
  registry.register_detector(
      "gmm", "Gaussian Mixture", [](const DetectorOptions&) {
        return std::make_unique<baselines::GmmDetector>();
      });
  registry.register_detector(
      "pca", "PCA Reconstruction", [](const DetectorOptions&) {
        return std::make_unique<baselines::PcaDetector>();
      });
  return registry;
}

}  // namespace

DetectorRegistry& DetectorRegistry::global() {
  static DetectorRegistry registry = built_in_registry();
  return registry;
}

void DetectorRegistry::register_detector(std::string name,
                                         std::string display_name,
                                         Factory factory) {
  if (name.empty() || !factory) {
    throw std::invalid_argument("DetectorRegistry: empty name or factory");
  }
  const auto [it, inserted] = entries_.try_emplace(std::move(name));
  it->second.display_name = std::move(display_name);
  it->second.factory = std::move(factory);
  if (inserted) order_.push_back(it->first);
}

const DetectorRegistry::Entry& DetectorRegistry::entry(
    const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& n : order_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("DetectorRegistry: unknown detector '" + name +
                            "' (known: " + known + ")");
  }
  return it->second;
}

std::unique_ptr<core::Detector> DetectorRegistry::make(
    const std::string& name, const DetectorOptions& options) const {
  return entry(name).factory(options);
}

std::function<std::unique_ptr<core::Detector>()> DetectorRegistry::factory(
    const std::string& name, const DetectorOptions& options) const {
  Factory bound = entry(name).factory;  // resolve (and throw) eagerly; copy
  return [bound = std::move(bound), options] { return bound(options); };
}

bool DetectorRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

const std::string& DetectorRegistry::display_name(
    const std::string& name) const {
  return entry(name).display_name;
}

std::vector<std::string> DetectorRegistry::names() const { return order_; }

}  // namespace prodigy::baselines
