// Figure 5 (paper §6.1): macro-F1 comparison of Prodigy against USAD,
// Majority Label Prediction, Random Prediction, Isolation Forest, and Local
// Outlier Factor on the Eclipse and Volta collections, averaged over 5
// repetitions of the §5.4.2 split (20% train with a 10% anomaly cap, 80%
// test).  Paper reference values: Prodigy 0.95 / 0.88, USAD 0.68 / 0.84,
// Majority ~0.47, Random ~0.39-0.47, IF 0.31 / 0.86, LOF 0.15 / ~0.6.
//
// Defaults are budget-scaled for a single core; paper scale (one command):
//   fig5_baseline_comparison --scale 1.0 --duration 1800 --trim 60
//     --features 2000 --epochs 2400 --batch 256 --lr 1e-4 --rounds 5
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace prodigy;
  util::set_log_level(util::LogLevel::Warn);
  const bench::Flags flags(argc, argv);
  const auto data_options = bench::dataset_options_from_flags(flags);
  const auto model_options = bench::model_options_from_flags(flags);
  const std::size_t rounds = flags.count("rounds", static_cast<std::size_t>(5));

  std::printf("=== Figure 5: Prodigy vs baselines (macro average F1, %zu rounds) ===\n",
              rounds);
  util::CsvTable csv;
  csv.header = {"dataset", "model", "macro_f1", "stddev", "accuracy",
                "train_s", "infer_s"};

  for (const std::string system : {"Eclipse", "Volta"}) {
    const auto dataset = bench::build_system_dataset(system, data_options);
    std::printf("\n%-28s %8s %8s %9s %9s %9s\n", ("[" + system + "] model").c_str(),
                "F1", "+/-", "accuracy", "train(s)", "infer(s)");
    for (const auto& [name, factory] :
         bench::fig5_roster(model_options, flags.has("extended"))) {
      const auto result = eval::repeated_prodigy_eval(
          factory, dataset, rounds, 42 + data_options.seed, {}, 0.2, 0.1);
      double train_s = 0.0, infer_s = 0.0;
      for (const auto& round : result.rounds) {
        train_s += round.train_seconds;
        infer_s += round.inference_seconds;
      }
      train_s /= static_cast<double>(rounds);
      infer_s /= static_cast<double>(rounds);
      std::printf("%-28s %8.3f %8.3f %9.3f %9.2f %9.3f\n", name.c_str(),
                  result.mean_f1(), result.stddev_f1(), result.mean_accuracy(),
                  train_s, infer_s);
      csv.rows.push_back({system, name, std::to_string(result.mean_f1()),
                          std::to_string(result.stddev_f1()),
                          std::to_string(result.mean_accuracy()),
                          std::to_string(train_s), std::to_string(infer_s)});
    }
  }

  const std::string out = flags.get("out", std::string("fig5_results.csv"));
  util::write_csv(out, csv);
  std::printf("\n# results written to %s\n", out.c_str());
  return 0;
}
