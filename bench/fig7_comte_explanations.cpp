// Figure 7 (paper §6.2): per-node anomaly verdicts and CoMTE counterfactual
// explanations for a job with the memleak anomaly.  The paper's "Chosen Job"
// runs Empire on 4 nodes with memleak injected on a subset; CoMTE's top
// explanation metrics were MemFree::meminfo and pgrotated::vmstat — MemFree
// shows a clear decreasing trend on the anomalous nodes.
//
// This bench reproduces the whole Grafana request flow (Figs. 2-4): DSOS
// ingest -> DataGenerator -> DataPipeline -> AnomalyDetector -> CoMTE, and
// prints the verdicts, explanations, and the MemFree trend statistics.
#include "bench_common.hpp"

#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/stats.hpp"

int main(int argc, char** argv) {
  using namespace prodigy;
  util::set_log_level(util::LogLevel::Warn);
  const bench::Flags flags(argc, argv);
  const double duration = flags.get("duration", 240.0);
  const std::size_t healthy_jobs =
      flags.count("healthy-jobs", static_cast<std::size_t>(6));
  const auto model_options = bench::model_options_from_flags(flags);

  // The paper's Fig. 7 shows Empire runs; a leaner default app keeps the slow
  // leak below the reclaim threshold so the counterfactual stays compact.
  const std::string app_name = flags.get("app", std::string("LAMMPS"));
  deploy::DsosStore store;
  std::vector<std::int64_t> train_jobs;
  util::Rng seed_rng(flags.count("seed", static_cast<std::size_t>(13)));

  // Healthy Empire runs for training, plus two memleak runs so the offline
  // chi-square selection has anomalous samples (paper: 24 suffice).
  const hpas::AnomalySpec memleak{hpas::AnomalyKind::Memleak, 1.0, "-s 10M -p 1"};
  for (std::size_t j = 0; j < healthy_jobs; ++j) {
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name(app_name);
    config.job_id = static_cast<std::int64_t>(100 + j);
    config.num_nodes = 4;
    config.duration_s = duration;
    config.seed = seed_rng();
    config.first_component_id = config.job_id * 10;
    store.ingest(telemetry::generate_run(config));
    train_jobs.push_back(config.job_id);
  }
  for (std::size_t j = 0; j < 2; ++j) {
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name(app_name);
    config.job_id = static_cast<std::int64_t>(200 + j);
    config.num_nodes = 4;
    config.duration_s = duration;
    config.seed = seed_rng();
    config.anomaly = memleak;
    config.first_component_id = config.job_id * 10;
    store.ingest(telemetry::generate_run(config));
    train_jobs.push_back(config.job_id);
  }

  // The "Chosen Job": a slow in-the-wild leak on nodes 1 and 3 — small
  // enough that the node barely reaches reclaim, which keeps the
  // counterfactual compact like the paper's two-metric example (MemFree +
  // pgrotated).
  const hpas::AnomalySpec mild_memleak{hpas::AnomalyKind::Memleak, 0.25,
                                       "-s 1M -p 0.1 (slow leak)"};
  telemetry::RunConfig chosen;
  chosen.app = telemetry::application_by_name(app_name);
  chosen.job_id = 999;
  chosen.num_nodes = 4;
  chosen.duration_s = duration;
  chosen.seed = seed_rng();
  chosen.anomaly = mild_memleak;
  chosen.anomalous_nodes = {1, 3};
  chosen.first_component_id = 12;  // the paper's example mentions node 12 & 66
  store.ingest(telemetry::generate_run(chosen));

  deploy::TrainFromStoreOptions options;
  options.preprocess.trim_seconds = flags.get("trim", 30.0);
  options.top_k_features = flags.count("features", static_cast<std::size_t>(192));
  options.model = bench::prodigy_config(model_options);
  options.system_name = "Eclipse";

  util::Timer timer;
  const auto service = deploy::AnalyticsService::train_from_store(
      store, train_jobs, options, /*explain=*/true);
  std::printf("# offline training completed in %.1fs\n", timer.elapsed_seconds());

  std::printf("\n=== Figure 7: anomaly dashboard for job 999 (memleak) ===\n");
  const auto analysis = service.analyze_job(999);
  std::printf("job %lld app %s analyzed in %.2fs\n",
              static_cast<long long>(analysis.job_id), analysis.app.c_str(),
              analysis.seconds);
  for (const auto& node : analysis.nodes) {
    std::printf("\ncomponent_id %lld: %s  (score %.4f, threshold %.4f)\n",
                static_cast<long long>(node.component_id),
                node.anomalous ? "ANOMALOUS" : "healthy", node.score,
                node.threshold);
    if (node.explanation) {
      const auto& explanation = *node.explanation;
      std::printf("  CoMTE counterfactual (%s, %zu model calls):\n",
                  explanation.success ? "flips to healthy" : "no flip found",
                  explanation.evaluations);
      for (const auto& change : explanation.changes) {
        std::printf("    %-28s would be classified healthy if %s\n",
                    change.metric.c_str(),
                    change.mean_delta < 0 ? "this metric were lower"
                                          : "this metric were higher");
      }
      std::printf("    P(anomalous): %.3f -> %.3f\n",
                  explanation.original_probability, explanation.final_probability);
    }
  }

  // The raw MemFree trend the paper's Figure 7 plots.
  std::printf("\n=== MemFree::meminfo trend (tail/head mean ratio per node) ===\n");
  const auto job = store.query_job(999);
  const auto mem_free = telemetry::metric_index("MemFree::meminfo");
  for (const auto& node : job.nodes) {
    const auto series = node.values.column(mem_free);
    const std::size_t quarter = series.size() / 4;
    std::vector<double> head(series.begin() + quarter / 2,
                             series.begin() + quarter / 2 + quarter);
    std::vector<double> tail(series.end() - quarter, series.end());
    std::printf("component_id %lld (%s): ratio %.2f%s\n",
                static_cast<long long>(node.component_id),
                node.label ? "memleak" : "healthy",
                tensor::mean(tail) / tensor::mean(head),
                node.label ? "  <- decreasing trend" : "");
  }
  return 0;
}
