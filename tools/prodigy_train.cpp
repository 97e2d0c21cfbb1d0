// prodigy_train — offline training (Fig. 3) from a DSOS snapshot.
//
//   prodigy_train --store store.dsos --out model_dir
//                 [--features 2000] [--epochs 300] [--batch 32] [--lr 1e-3]
//                 [--trim 60] [--system Eclipse] [--metrics-out PATH]
//
// Trains on every job in the snapshot: chi-square feature selection when the
// snapshot contains anomalous runs, variance ranking otherwise; the VAE is
// fitted to the healthy samples only and the bundle (weights + scaler +
// deployment metadata) is written to --out.
//
// Detector-zoo mode (construction via baselines::DetectorRegistry, the single
// source of truth for names/configs shared with the benches):
//
//   prodigy_train --store store.dsos --detector usad [--features K ...]
//   prodigy_train --list-detectors
//
// trains the named detector on the snapshot's feature dataset and reports
// its verdict counts (plus tuned macro-F1 when the snapshot is labeled)
// instead of writing a bundle — only the Prodigy VAE is deployable.
#include "baselines/detector_registry.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "eval/metrics.hpp"
#include "features/chi_square.hpp"
#include "pipeline/data_pipeline.hpp"
#include "pipeline/scaler.hpp"
#include "tool_common.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <exception>

namespace {

using namespace prodigy;

/// The zoo path: same dataset flow as train_from_store (features -> select
/// -> scale) but through any registry detector; evaluation only, no bundle.
int run_zoo(const deploy::DsosStore& store, const std::string& name,
            const baselines::DetectorOptions& options,
            const pipeline::PreprocessOptions& preprocess, std::size_t top_k) {
  auto& registry = baselines::DetectorRegistry::global();

  std::vector<telemetry::JobTelemetry> jobs;
  for (const auto job_id : store.job_ids()) jobs.push_back(store.query_job(job_id));
  auto dataset = pipeline::DataPipeline::build_from_jobs(jobs, preprocess);

  pipeline::Scaler select_scaler(pipeline::ScalerKind::MinMax);
  features::FeatureDataset scaled = dataset;
  scaled.X = select_scaler.fit_transform(dataset.X);
  const std::size_t anomalous = dataset.anomalous_count();
  const auto selection =
      (anomalous > 0 && anomalous < dataset.size())
          ? features::select_features_chi2(scaled, top_k)
          : features::select_features_variance(dataset, top_k);
  dataset = dataset.select_columns(selection.selected);
  pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
  dataset.X = scaler.fit_transform(dataset.X);

  auto detector = registry.make(name, options);
  std::printf("training %s on %zu samples x %zu features (%.1f%% anomalous)\n",
              registry.display_name(name).c_str(), dataset.size(),
              dataset.X.cols(), 100.0 * dataset.anomaly_ratio());
  util::Timer timer;
  detector->fit(dataset.X, dataset.labels);
  const double fit_seconds = timer.elapsed_seconds();

  const auto predictions = detector->predict(dataset.X);
  std::size_t flagged = 0;
  for (const int p : predictions) flagged += p != 0 ? 1 : 0;
  std::printf("fit in %.1fs; flags %zu of %zu samples\n", fit_seconds, flagged,
              predictions.size());
  if (anomalous > 0 && anomalous < dataset.size()) {
    detector->tune(dataset.X, dataset.labels);
    const auto tuned = detector->predict(dataset.X);
    std::printf("tuned macro-F1 %.4f\n",
                eval::macro_f1(dataset.labels, tuned));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const tools::Flags flags(argc, argv);
  if (flags.has("list-detectors")) {
    for (const auto& name : baselines::DetectorRegistry::global().names()) {
      std::printf("%-18s %s\n", name.c_str(),
                  baselines::DetectorRegistry::global().display_name(name).c_str());
    }
    return 0;
  }
  if (!flags.has("store") || (!flags.has("out") && !flags.has("detector"))) {
    tools::usage("usage: prodigy_train --store FILE --out DIR "
                 "[--features K --epochs E --batch B --lr R --trim S "
                 "--metrics-out PATH]\n"
                 "       prodigy_train --store FILE --detector NAME [...]\n"
                 "       prodigy_train --list-detectors\n");
  }
  const std::string metrics_out = flags.get("metrics-out", std::string());
  deploy::TrainFromStoreOptions options;
  options.preprocess.trim_seconds = flags.get("trim", 60.0);
  options.top_k_features = flags.count("features", 2000);
  options.model.train.epochs = flags.count("epochs", 300);
  options.model.train.batch_size = flags.count("batch", 32);
  options.model.train.learning_rate = flags.get("lr", 1e-3);
  options.system_name = flags.get("system", std::string("Eclipse"));
  baselines::DetectorOptions zoo;
  zoo.epochs = options.model.train.epochs;
  zoo.batch_size = options.model.train.batch_size;
  zoo.learning_rate = options.model.train.learning_rate;
  zoo.usad_epochs = flags.count("usad-epochs", 100);
  util::set_log_level(util::LogLevel::Info);

  const auto store = deploy::DsosStore::load(flags.get("store", std::string()));
  std::printf("loaded %zu jobs from %s\n", store.job_count(),
              flags.get("store", std::string()).c_str());

  if (flags.has("detector")) {
    return run_zoo(store, flags.get("detector", std::string("prodigy")), zoo,
                   options.preprocess, options.top_k_features);
  }

  util::Timer timer;
  const auto service = deploy::AnalyticsService::train_from_store(
      store, store.job_ids(), options, /*explain=*/false);
  const std::string out = flags.get("out", std::string());
  service.bundle().save(out);

  std::printf("trained in %.1fs; threshold %.6f; %zu features; bundle -> %s\n",
              timer.elapsed_seconds(), service.bundle().detector.threshold(),
              service.bundle().metadata.feature_names.size(), out.c_str());
  if (flags.has("metrics-out")) {
    util::MetricsRegistry::global().write_file(metrics_out);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "prodigy_train: %s\n", error.what());
  return 1;
}
