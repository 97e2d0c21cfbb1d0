// Shared plumbing for the experiment binaries: the tools' flag parser, the
// Figure-5 dataset builders (scaled-down by default for single-core runs;
// every knob exposed as a flag so paper-scale runs are one command away),
// and the detector factory used across benches.
#pragma once

#include "baselines/detector_registry.hpp"
#include "baselines/usad.hpp"
#include "core/prodigy_detector.hpp"
#include "eval/crossval.hpp"
#include "features/chi_square.hpp"
#include "pipeline/data_pipeline.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

#include "tool_common.hpp"

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

namespace prodigy::bench {

/// The command-line tools' flag parser: a value flag given bare, or a
/// count flag given a negative or non-numeric value, exits 2 naming it.
using Flags = tools::Flags;

struct DatasetOptions {
  double scale = 0.035;       // fraction of the paper's run counts
  double duration_s = 150.0;  // paper: 20-45 min; scaled for single-core
  std::size_t top_k_features = 1024;  // paper best: 2000
  double trim_seconds = 20.0;        // paper: 60 (of 1200-2700 s runs)
  std::uint64_t seed = 1;
};

inline DatasetOptions dataset_options_from_flags(const Flags& flags) {
  DatasetOptions options;
  options.scale = flags.get("scale", options.scale);
  options.duration_s = flags.get("duration", options.duration_s);
  options.top_k_features = flags.count("features", options.top_k_features);
  options.trim_seconds = flags.get("trim", options.trim_seconds);
  options.seed = flags.count("seed", static_cast<std::size_t>(options.seed));
  return options;
}

/// Builds the (column-selected) labeled feature dataset for one system.
inline features::FeatureDataset build_system_dataset(const std::string& system,
                                                     const DatasetOptions& options) {
  telemetry::DatasetSpec spec = system == "Eclipse"
                                    ? telemetry::eclipse_dataset_spec(options.scale,
                                                                      options.duration_s)
                                    : telemetry::volta_dataset_spec(options.scale,
                                                                    options.duration_s);
  spec.seed ^= options.seed;

  pipeline::PreprocessOptions preprocess;
  preprocess.trim_seconds = options.trim_seconds;

  util::Timer timer;
  auto dataset = pipeline::DataPipeline::build_dataset(spec, preprocess);
  std::printf("# %s: %zu samples (%.1f%% anomalous), %zu raw features, %.1fs\n",
              system.c_str(), dataset.size(), 100.0 * dataset.anomaly_ratio(),
              dataset.X.cols(), timer.elapsed_seconds());

  // Offline chi-square feature selection on min-max-scaled features (Fig. 1).
  pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
  features::FeatureDataset scaled = dataset;
  scaled.X = scaler.fit_transform(dataset.X);
  const auto selection =
      features::select_features_chi2(scaled, options.top_k_features);
  return dataset.select_columns(selection.selected);
}

struct ModelOptions {
  std::size_t epochs = 300;       // paper Table 3: 2400
  std::size_t batch_size = 32;    // paper: 256
  double learning_rate = 1e-3;    // paper: 1e-4 (at 2400 epochs)
  std::size_t usad_epochs = 100;  // paper: 100
};

inline ModelOptions model_options_from_flags(const Flags& flags) {
  ModelOptions options;
  options.epochs = flags.count("epochs", options.epochs);
  options.batch_size = flags.count("batch", options.batch_size);
  options.learning_rate = flags.get("lr", options.learning_rate);
  options.usad_epochs = flags.count("usad-epochs", options.usad_epochs);
  return options;
}

inline core::ProdigyConfig prodigy_config(const ModelOptions& options) {
  core::ProdigyConfig config;
  config.vae.encoder_hidden = {64, 24};
  config.vae.latent_dim = 8;
  config.train.epochs = options.epochs;
  config.train.batch_size = options.batch_size;
  config.train.learning_rate = options.learning_rate;
  config.train.validation_split = 0.0;
  config.train.early_stopping_patience = 0;
  return config;
}

inline baselines::UsadConfig usad_config(const ModelOptions& options) {
  baselines::UsadConfig config;
  config.hidden = 96;   // paper Table 3: 200
  config.latent = 24;
  config.train.epochs = options.usad_epochs;
  config.train.batch_size = options.batch_size;
  config.train.learning_rate = options.learning_rate;
  return config;
}

/// Maps the bench budget knobs onto the registry's options (one place; the
/// per-detector configuration itself lives in baselines::DetectorRegistry).
inline baselines::DetectorOptions detector_options(const ModelOptions& options) {
  baselines::DetectorOptions detector_opts;
  detector_opts.epochs = options.epochs;
  detector_opts.batch_size = options.batch_size;
  detector_opts.learning_rate = options.learning_rate;
  detector_opts.usad_epochs = options.usad_epochs;
  return detector_opts;
}

/// The Figure-5 model roster, constructed through the DetectorRegistry (the
/// single source of truth for names and configs).  `extended` adds the
/// related-work models the paper discusses but does not plot (K-means §5.3,
/// Gaussian mixtures §2.1 [Ozer et al.], and a linear PCA-reconstruction
/// ablation).
inline std::vector<std::pair<std::string, eval::DetectorFactory>> fig5_roster(
    const ModelOptions& options, bool extended = false) {
  const auto& registry = baselines::DetectorRegistry::global();
  const baselines::DetectorOptions detector_opts = detector_options(options);
  std::vector<std::string> names = {"prodigy", "usad",           "majority",
                                    "random",  "isolation-forest", "lof"};
  if (extended) names.insert(names.end(), {"kmeans", "gmm", "pca"});
  std::vector<std::pair<std::string, eval::DetectorFactory>> roster;
  roster.reserve(names.size());
  for (const auto& name : names) {
    roster.emplace_back(registry.display_name(name),
                        registry.factory(name, detector_opts));
  }
  return roster;
}

}  // namespace prodigy::bench
