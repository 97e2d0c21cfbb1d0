// Figure 6 (paper §6.2, first production experiment): Prodigy's F1-score as
// a function of the number of healthy samples in the training set.
//
// Protocol per the paper: 4 applications (LAMMPS, sw4, sw4lite, ExaMiniMD),
// each run 5x healthy and 5x with the memleak anomaly on 4 compute nodes ->
// 160 samples (80 healthy / 80 anomalous).  For each healthy-count in
// {4, 8, 16, 32, 48, 64} the selection is repeated 10 times; the test set is
// all anomalous samples plus the remaining healthy ones.  Paper: 0.58 F1 at
// 4 samples, ~0.9 at 16, 0.96 at ~60.
#include "bench_common.hpp"

#include "pipeline/splits.hpp"
#include "tensor/stats.hpp"

int main(int argc, char** argv) {
  using namespace prodigy;
  util::set_log_level(util::LogLevel::Warn);
  const bench::Flags flags(argc, argv);
  const double duration = flags.get("duration", 240.0);
  const std::size_t repeats = flags.count("repeats", static_cast<std::size_t>(10));
  const std::size_t top_k = flags.count("features", static_cast<std::size_t>(256));
  const auto model_options = bench::model_options_from_flags(flags);

  // --- Data collection: 4 apps x (5 healthy + 5 memleak) runs x 4 nodes. ---
  const std::vector<std::string> apps{"LAMMPS", "sw4", "sw4lite", "ExaMiniMD"};
  const hpas::AnomalySpec memleak{hpas::AnomalyKind::Memleak, 1.0, "-s 10M -p 1"};
  std::vector<telemetry::JobTelemetry> jobs;
  std::int64_t job_id = 1;
  util::Rng seed_rng(flags.count("seed", static_cast<std::size_t>(7)));
  for (const auto& app : apps) {
    for (int run = 0; run < 10; ++run) {
      telemetry::RunConfig config;
      config.app = telemetry::application_by_name(app);
      config.job_id = job_id;
      config.num_nodes = 4;
      config.duration_s = duration;
      config.seed = seed_rng();
      config.first_component_id = job_id * 10;
      if (run >= 5) config.anomaly = memleak;
      jobs.push_back(telemetry::generate_run(config));
      ++job_id;
    }
  }

  pipeline::PreprocessOptions preprocess;
  preprocess.trim_seconds = flags.get("trim", 30.0);
  util::Timer timer;
  auto dataset = pipeline::DataPipeline::build_from_jobs(jobs, preprocess);
  std::printf("# collected %zu samples (%zu anomalous) in %.1fs\n", dataset.size(),
              dataset.anomalous_count(), timer.elapsed_seconds());

  // Offline feature selection once, as in deployment.
  {
    pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
    features::FeatureDataset scaled = dataset;
    scaled.X = scaler.fit_transform(dataset.X);
    dataset = dataset.select_columns(
        features::select_features_chi2(scaled, top_k).selected);
  }

  std::vector<std::size_t> healthy_rows, anomalous_rows;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    (dataset.labels[i] != 0 ? anomalous_rows : healthy_rows).push_back(i);
  }

  std::printf("\n=== Figure 6: F1 vs healthy training samples (%zu repeats) ===\n",
              repeats);
  std::printf("%10s %10s %10s\n", "n_healthy", "mean_F1", "stddev");
  util::CsvTable csv;
  csv.header = {"n_healthy", "mean_f1", "stddev"};

  util::Rng rng(flags.count("seed", static_cast<std::size_t>(7)) ^ 0x515);
  for (const std::size_t n_healthy : {4u, 8u, 16u, 32u, 48u, 64u}) {
    std::vector<double> f1s;
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      // Random selection of healthy training samples; everything else tests.
      auto pool = healthy_rows;
      for (std::size_t i = 0; i < n_healthy && i < pool.size(); ++i) {
        std::swap(pool[i], pool[i + rng.uniform_index(pool.size() - i)]);
      }
      std::vector<std::size_t> train_rows(pool.begin(), pool.begin() + n_healthy);
      std::vector<std::size_t> test_rows(pool.begin() + n_healthy, pool.end());
      test_rows.insert(test_rows.end(), anomalous_rows.begin(), anomalous_rows.end());

      const auto train = dataset.select_rows(train_rows);
      const auto test = dataset.select_rows(test_rows);

      auto config = bench::prodigy_config(bench::ModelOptions{
          model_options.epochs, std::min<std::size_t>(model_options.batch_size, 16),
          model_options.learning_rate, model_options.usad_epochs});
      core::ProdigyDetector detector(config);
      // No test-side tuning here: the experiment measures how well the
      // 99th-percentile threshold generalizes from few healthy samples.
      eval::EvalOptions eval_options;
      eval_options.tune_on_test = false;
      const auto result = eval::evaluate_fold(detector, train.X, train.labels,
                                              test.X, test.labels, eval_options);
      f1s.push_back(result.macro_f1);
    }
    const double mean = tensor::mean(f1s);
    const double sd = tensor::stddev(f1s);
    std::printf("%10zu %10.3f %10.3f\n", static_cast<std::size_t>(n_healthy), mean, sd);
    csv.rows.push_back({std::to_string(n_healthy), std::to_string(mean),
                        std::to_string(sd)});
  }

  const std::string out = flags.get("out", std::string("fig6_results.csv"));
  util::write_csv(out, csv);
  std::printf("# results written to %s\n", out.c_str());
  return 0;
}
