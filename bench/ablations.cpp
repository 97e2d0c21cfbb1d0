// Ablations over Prodigy's design choices (DESIGN.md E-abl):
//  * threshold percentile — §3.3: "typically ... the 99th percentile or
//    maximum value ... one can experiment with different percentile values";
//  * scaler kind — §4.2.1 supports pluggable scalers (min-max default);
//  * KL weight — the ELBO's regularization strength (0 = plain autoencoder,
//    recovering the Borghesi-style semi-supervised AE baseline of §2.1);
//  * reconstruction loss for training (MSE Gaussian likelihood vs MAE).
#include "bench_common.hpp"

#include "pipeline/splits.hpp"

int main(int argc, char** argv) {
  using namespace prodigy;
  util::set_log_level(util::LogLevel::Warn);
  const bench::Flags flags(argc, argv);
  auto data_options = bench::dataset_options_from_flags(flags);
  const auto model_options = bench::model_options_from_flags(flags);
  const std::size_t rounds = flags.count("rounds", static_cast<std::size_t>(2));

  const auto dataset = bench::build_system_dataset("Eclipse", data_options);
  util::CsvTable csv;
  csv.header = {"ablation", "setting", "macro_f1", "stddev"};

  auto run = [&](const std::string& ablation, const std::string& setting,
                 const core::ProdigyConfig& config, const eval::EvalOptions& options) {
    const auto result = eval::repeated_prodigy_eval(
        [&] { return std::make_unique<core::ProdigyDetector>(config); }, dataset,
        rounds, 42 + data_options.seed, options, 0.2, 0.1);
    std::printf("%-22s %-12s F1=%.3f +/- %.3f\n", ablation.c_str(), setting.c_str(),
                result.mean_f1(), result.stddev_f1());
    csv.rows.push_back(std::vector<std::string>{
        ablation, setting, std::to_string(result.mean_f1()),
        std::to_string(result.stddev_f1())});
  };

  // --- Threshold percentile (no test-side tuning: the point is how well the
  // healthy-percentile threshold generalizes). ---
  std::printf("=== threshold percentile (tune_on_test off) ===\n");
  for (const double percentile : {90.0, 95.0, 99.0, 100.0}) {
    auto config = bench::prodigy_config(model_options);
    config.threshold_percentile = percentile;
    eval::EvalOptions options;
    options.tune_on_test = false;
    run("threshold_percentile", std::to_string(static_cast<int>(percentile)),
        config, options);
  }

  // --- Scaler kind. ---
  std::printf("\n=== scaler kind ===\n");
  for (const auto kind : {pipeline::ScalerKind::MinMax, pipeline::ScalerKind::Standard}) {
    eval::EvalOptions options;
    options.scaler = kind;
    run("scaler", pipeline::to_string(kind), bench::prodigy_config(model_options),
        options);
  }

  // --- KL weight (0 = plain deterministic-ish autoencoder). ---
  std::printf("\n=== KL weight ===\n");
  for (const double kl : {0.0, 0.1, 1.0, 4.0}) {
    auto config = bench::prodigy_config(model_options);
    config.vae.kl_weight = kl;
    run("kl_weight", std::to_string(kl), config, {});
  }

  // --- Training reconstruction loss. ---
  std::printf("\n=== training reconstruction loss ===\n");
  for (const auto loss : {core::ReconLoss::Mse, core::ReconLoss::Mae}) {
    auto config = bench::prodigy_config(model_options);
    config.vae.recon_loss = loss;
    run("recon_loss", loss == core::ReconLoss::Mse ? "mse" : "mae", config, {});
  }

  // --- §7 future work: fully unsupervised training (no labels at all). ---
  // The training split keeps its ~10% anomaly contamination; fit_unsupervised
  // self-labels and purges instead of relying on ground truth.
  std::printf("\n=== fully unsupervised training (§7 future work) ===\n");
  {
    const auto split = pipeline::prodigy_split(dataset.labels, 0.2, 0.1,
                                               91 ^ data_options.seed);
    const auto train = dataset.select_rows(split.train);
    const auto test = dataset.select_rows(split.test);
    pipeline::Scaler scaler(pipeline::ScalerKind::MinMax);
    const auto train_scaled = scaler.fit_transform(train.X);
    const auto test_scaled = scaler.transform(test.X);

    core::ProdigyDetector supervised(bench::prodigy_config(model_options));
    supervised.fit(train_scaled, train.labels);  // uses labels to drop anomalies
    supervised.tune(test_scaled, test.labels);
    const double supervised_f1 =
        eval::macro_f1(test.labels, supervised.predict(test_scaled));

    core::ProdigyDetector unsupervised(bench::prodigy_config(model_options));
    const auto report = unsupervised.fit_unsupervised(train_scaled, 0.10, 2);
    unsupervised.tune(test_scaled, test.labels);
    const double unsupervised_f1 =
        eval::macro_f1(test.labels, unsupervised.predict(test_scaled));

    std::size_t true_anomalies_kept = 0;
    for (const auto row : report.kept_indices) {
      true_anomalies_kept += train.labels[row] != 0 ? 1 : 0;
    }
    std::printf("healthy-labels training     F1=%.3f\n", supervised_f1);
    std::printf("fully unsupervised training F1=%.3f (purged %zu rows over %zu "
                "rounds; %zu true anomalies slipped through)\n",
                unsupervised_f1, train.X.rows() - report.final_training_size,
                report.rounds, true_anomalies_kept);
    csv.rows.push_back(std::vector<std::string>{
        "unsupervised", "labels", std::to_string(supervised_f1), "0"});
    csv.rows.push_back(std::vector<std::string>{
        "unsupervised", "self-labeled", std::to_string(unsupervised_f1), "0"});
  }

  const std::string out = flags.get("out", std::string("ablation_results.csv"));
  util::write_csv(out, csv);
  std::printf("\n# results written to %s\n", out.c_str());
  return 0;
}
