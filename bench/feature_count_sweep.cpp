// §5.4.3 ablation: anomaly-detection F1 as a function of the number of
// chi-square-selected features.  The paper sweeps the top 250, 500, 1000 and
// 2000 of TSFRESH's 794-per-metric feature space and finds 2000 best.  Our
// registry yields ~3400 columns (48 metrics x ~70 features), so the sweep
// covers the same fractions of the space.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace prodigy;
  util::set_log_level(util::LogLevel::Warn);
  const bench::Flags flags(argc, argv);
  auto data_options = bench::dataset_options_from_flags(flags);
  const auto model_options = bench::model_options_from_flags(flags);
  const std::size_t rounds = flags.count("rounds", static_cast<std::size_t>(3));

  // Build once with ALL columns; sweep selects subsets.
  data_options.top_k_features = static_cast<std::size_t>(-1);
  // Eclipse: the Table-2 mix is dominated (in chi-square rank) by memleak
  // features, so contention anomalies only become detectable once the
  // selection digs deep enough — reproducing the paper's finding that more
  // features (2000) outperform small selections.
  telemetry::DatasetSpec spec =
      telemetry::eclipse_dataset_spec(data_options.scale, data_options.duration_s);
  spec.seed ^= data_options.seed;
  pipeline::PreprocessOptions preprocess;
  preprocess.trim_seconds = data_options.trim_seconds;
  const auto dataset = pipeline::DataPipeline::build_dataset(spec, preprocess);
  std::printf("# %zu samples, %zu candidate features\n", dataset.size(),
              dataset.X.cols());

  pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
  features::FeatureDataset scaled = dataset;
  scaled.X = scaler.fit_transform(dataset.X);
  const auto scores = features::chi2_scores(scaled.X, scaled.labels);

  std::printf("\n=== Feature-count sweep (paper §5.4.3: top 250/500/1000/2000) ===\n");
  std::printf("%10s %10s %10s\n", "features", "mean_F1", "stddev");
  util::CsvTable csv;
  csv.header = {"features", "mean_f1", "stddev"};

  for (const std::size_t k : {64u, 128u, 250u, 500u, 1000u, 2000u}) {
    if (k > dataset.X.cols()) break;
    const auto selected = features::top_k_indices(scores, k);
    const auto subset = dataset.select_columns(selected);
    const auto result = eval::repeated_prodigy_eval(
        [&] {
          return std::make_unique<core::ProdigyDetector>(
              bench::prodigy_config(model_options));
        },
        subset, rounds, 42 + data_options.seed, {}, 0.2, 0.1);
    std::printf("%10zu %10.3f %10.3f\n", static_cast<std::size_t>(k),
                result.mean_f1(), result.stddev_f1());
    csv.rows.push_back({std::to_string(k), std::to_string(result.mean_f1()),
                        std::to_string(result.stddev_f1())});
  }

  const std::string out = flags.get("out", std::string("feature_sweep_results.csv"));
  util::write_csv(out, csv);
  std::printf("# results written to %s\n", out.c_str());
  return 0;
}
