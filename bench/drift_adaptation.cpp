// Drift-adaptation benchmark: the ground-truth evaluation of the online
// adaptation subsystem (src/adapt/).  The live stream carries no labels, so
// the AdaptiveModelManager's swap gate has to reason about error profiles;
// here the replay is synthetic, labels exist, and the adaptive scorer can be
// scored against a frozen one on the exact scenario adaptation is for:
//
//   1. train a bundle on day-one healthy telemetry;
//   2. replay a long run whose healthy baseline DRIFTS toward a new normal
//      (telemetry::RunConfig::baseline_drift) while half the nodes pick up a
//      memleak that starts mid-run, overlapping the drift
//      (anomaly_start_frac);
//   3. score the replay twice — frozen bundle vs. the same bundle behind an
//      AdaptiveModelManager (synchronous refits) — and compare deployed and
//      tuned macro-F1 plus the false-alarm rate on drifted-healthy windows.
//
//   drift_adaptation [--nodes 8] [--duration 1536] [--drift 0.35]
//                    [--anomaly-start 0.55] [--window 64] [--hop 16]
//                    [--train-jobs 6] [--train-nodes 4] [--train-duration 80]
//                    [--epochs 120] [--features 64] [--refit-epochs 40]
//                    [--adapt-warmup 64] [--adapt-lambda 8]
//                    [--adapt-min-refit 64]
//
// Output is a markdown table (pasted into EXPERIMENTS.md).  Tuned macro-F1
// sweeps the score/threshold RATIO per model generation: every generation is
// a separately calibrated detector with its own score scale, so one global
// threshold across eras would conflate them.  The frozen pass has a single
// era, where the per-era sweep reduces to the plain global sweep.
#include "adapt/model_manager.hpp"
#include "bench_common.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "eval/metrics.hpp"
#include "hpas/anomalies.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace {

using namespace prodigy;

telemetry::JobTelemetry make_job(const telemetry::RunConfig& config) {
  return telemetry::generate_run(config);
}

std::vector<stream::SampleBatch> batches_from_run(const telemetry::JobTelemetry& job) {
  std::size_t ticks = 0;
  for (const auto& node : job.nodes) ticks = std::max(ticks, node.values.rows());
  std::vector<stream::SampleBatch> batches;
  batches.reserve(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    stream::SampleBatch batch;
    batch.sequence = t;
    for (const auto& node : job.nodes) {
      if (t >= node.values.rows()) continue;
      stream::SampleRow row;
      row.job_id = node.job_id;
      row.component_id = node.component_id;
      row.timestamp = static_cast<std::int64_t>(t);
      row.app = node.app;
      const auto values = node.values.row(t);
      row.values.assign(values.begin(), values.end());
      batch.rows.push_back(std::move(row));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct NodeTruth {
  int label = 0;
  std::int64_t onset_tick = 0;  // first anomalous sample (label-1 nodes)
};
using TruthMap = std::map<std::pair<std::int64_t, std::int64_t>, NodeTruth>;

struct PassOutcome {
  std::vector<int> truth;
  std::vector<int> predicted;
  std::vector<double> ratios;  // score / serving threshold, generation-safe
  std::vector<std::uint64_t> generations;
  std::size_t healthy_windows = 0;
  std::size_t healthy_flagged = 0;
  stream::AdaptationStats stats{};
};

/// Replays `workload` through an OnlineScorer — frozen, or adaptive behind a
/// synchronous AdaptiveModelManager — and labels every verdict.  Windows
/// straddling the anomaly onset are excluded: the injected ramp is still
/// near zero there, so neither model can honestly be charged with them.
PassOutcome run_pass(const core::ModelBundle& bundle,
                     const std::vector<stream::SampleBatch>& workload,
                     const TruthMap& truth_map, std::size_t window,
                     std::size_t hop,
                     const adapt::AdaptationConfig* adapt_config) {
  stream::EventBus bus;
  PassOutcome outcome;
  std::mutex collect_mutex;
  bus.subscribe([&](const stream::VerdictEvent& event) {
    const auto it = truth_map.find({event.job_id, event.component_id});
    if (it == truth_map.end()) return;
    const NodeTruth& node = it->second;
    int label = 0;
    if (node.label == 1) {
      if (event.window_start_ts < node.onset_tick) {
        if (event.window_end_ts >= node.onset_tick) return;  // straddles onset
      } else {
        label = 1;
      }
    }
    std::lock_guard lock(collect_mutex);
    outcome.truth.push_back(label);
    outcome.predicted.push_back(event.anomalous ? 1 : 0);
    outcome.ratios.push_back(event.threshold > 0 ? event.score / event.threshold
                                                 : event.score);
    outcome.generations.push_back(event.model_generation);
    if (label == 0) {
      ++outcome.healthy_windows;
      outcome.healthy_flagged += event.anomalous ? 1 : 0;
    }
  });

  // Manager before scorer: the scorer calls back into it from scoring tasks.
  std::unique_ptr<adapt::AdaptiveModelManager> manager;
  if (adapt_config) {
    manager = std::make_unique<adapt::AdaptiveModelManager>(bundle, *adapt_config,
                                                            &bus, "bench");
  }
  stream::OnlineScorerConfig scorer_config;
  scorer_config.window = window;
  scorer_config.hop = hop;
  scorer_config.model_provider = manager.get();
  stream::OnlineScorer scorer(bundle, bus, scorer_config);

  deploy::DsosStore store;
  stream::StreamIngestor ingestor(store, {}, &scorer);
  for (const auto& batch : workload) ingestor.offer(batch);  // copies: reusable
  ingestor.stop();
  scorer.drain();
  if (manager) {
    manager->stop();
    outcome.stats = manager->adaptation_stats();
  }
  return outcome;
}

/// Tuned macro-F1 with the ratio threshold swept independently per model
/// generation (see file comment).  Per-era best thresholds are applied to
/// that era's windows and one macro-F1 is computed over the union.
double tuned_macro_f1(const PassOutcome& outcome) {
  std::map<std::uint64_t, std::vector<std::size_t>> eras;
  for (std::size_t i = 0; i < outcome.ratios.size(); ++i) {
    eras[outcome.generations[i]].push_back(i);
  }
  std::vector<int> predicted(outcome.truth.size(), 0);
  for (const auto& [generation, indices] : eras) {
    std::vector<double> ratios;
    std::vector<int> truth;
    ratios.reserve(indices.size());
    truth.reserve(indices.size());
    for (const auto i : indices) {
      ratios.push_back(outcome.ratios[i]);
      truth.push_back(outcome.truth[i]);
    }
    const auto sweep = eval::best_threshold_by_f1(ratios, truth);
    for (const auto i : indices) {
      predicted[i] = outcome.ratios[i] > sweep.best_threshold ? 1 : 0;
    }
  }
  return eval::macro_f1(outcome.truth, predicted);
}

void print_row(const char* label, const PassOutcome& outcome) {
  const double deployed = eval::macro_f1(outcome.truth, outcome.predicted);
  const double tuned = tuned_macro_f1(outcome);
  const double false_alarms =
      outcome.healthy_windows > 0
          ? static_cast<double>(outcome.healthy_flagged) /
                static_cast<double>(outcome.healthy_windows)
          : 0.0;
  std::printf("| %s | %zu | %.4f | %.4f | %.1f%% | %llu | %llu |\n", label,
              outcome.truth.size(), deployed, tuned,
              100.0 * false_alarms,
              static_cast<unsigned long long>(outcome.stats.swaps_completed),
              static_cast<unsigned long long>(outcome.stats.swaps_refused));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto nodes = flags.count("nodes", static_cast<std::size_t>(8));
  const double duration = flags.get("duration", 1536.0);
  const double drift = flags.get("drift", 0.35);
  const double anomaly_start = flags.get("anomaly-start", 0.55);
  const auto window = flags.count("window", static_cast<std::size_t>(64));
  const auto hop = flags.count("hop", static_cast<std::size_t>(16));
  const auto train_jobs = flags.count("train-jobs", static_cast<std::size_t>(6));
  const auto train_nodes = flags.count("train-nodes", static_cast<std::size_t>(4));
  const double train_duration = flags.get("train-duration", 80.0);

  // --- Day-one bundle: healthy-only telemetry, no drift (variance feature
  // ranking; the paper's unsupervised deployment mode).
  deploy::DsosStore train_store;
  std::vector<std::int64_t> train_ids;
  for (std::size_t i = 0; i < train_jobs; ++i) {
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name("LAMMPS");
    config.job_id = static_cast<std::int64_t>(i + 1);
    config.num_nodes = train_nodes;
    config.duration_s = train_duration;
    config.seed = static_cast<std::uint64_t>(i + 1) * 7919 + 13;
    config.first_component_id = config.job_id * 100;
    train_store.ingest(make_job(config));
    train_ids.push_back(config.job_id);
  }
  deploy::TrainFromStoreOptions options;
  options.preprocess.trim_seconds = 20;
  options.top_k_features = flags.count("features", static_cast<std::size_t>(64));
  options.model.vae.encoder_hidden = {24, 8};
  options.model.vae.latent_dim = 3;
  options.model.train.epochs = flags.count("epochs", static_cast<std::size_t>(120));
  options.model.train.batch_size = 16;
  options.model.train.learning_rate = 2e-3;
  options.model.train.validation_split = 0.0;
  options.model.train.early_stopping_patience = 0;
  util::Timer train_timer;
  const auto service = deploy::AnalyticsService::train_from_store(
      train_store, train_ids, options, /*explain=*/false);
  const core::ModelBundle& bundle = service.bundle();
  std::printf("# trained day-one bundle in %.1fs (%zu healthy jobs x %zu nodes)\n",
              train_timer.elapsed_seconds(), train_jobs, train_nodes);

  // --- Drifting replay: baseline ramps to `drift`; a memleak lands on the
  // odd nodes once the baseline has already shifted.
  telemetry::RunConfig replay_config;
  replay_config.app = telemetry::application_by_name("LAMMPS");
  replay_config.job_id = 9001;
  replay_config.num_nodes = nodes;
  replay_config.duration_s = duration;
  replay_config.seed = 1009;
  replay_config.first_component_id = replay_config.job_id * 100;
  replay_config.baseline_drift = drift;
  replay_config.anomaly_start_frac = anomaly_start;
  replay_config.anomaly = hpas::table2_configurations().back();  // memleak
  for (std::size_t n = 1; n < nodes; n += 2) {
    replay_config.anomalous_nodes.push_back(n);
  }
  const auto job = make_job(replay_config);
  const auto workload = batches_from_run(job);
  TruthMap truth_map;
  const auto onset_tick =
      static_cast<std::int64_t>(anomaly_start * duration);
  for (const auto& node : job.nodes) {
    truth_map[{node.job_id, node.component_id}] =
        NodeTruth{node.label, onset_tick};
  }
  std::printf("# replay: %zu ticks x %zu nodes, baseline drift %.2f, memleak "
              "on %zu nodes from t=%lld (W=%zu H=%zu)\n\n",
              workload.size(), nodes, drift,
              replay_config.anomalous_nodes.size(),
              static_cast<long long>(onset_tick), window, hop);

  adapt::AdaptationConfig adapt_config;
  adapt_config.drift.warmup_observations =
      flags.count("adapt-warmup", static_cast<std::size_t>(64));
  adapt_config.drift.lambda = flags.get("adapt-lambda", 8.0);
  adapt_config.refit_epochs =
      flags.count("refit-epochs", static_cast<std::size_t>(40));
  adapt_config.min_refit_samples =
      flags.count("adapt-min-refit", static_cast<std::size_t>(64));
  adapt_config.synchronous = true;  // swap points interleave with scoring

  std::printf("## drift_adaptation (frozen vs adaptive on a drifting replay)\n\n");
  std::printf("| model | windows | macro-F1 @ deployed | tuned macro-F1 | "
              "false alarms (healthy) | swaps | refusals |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  util::Timer frozen_timer;
  const PassOutcome frozen =
      run_pass(bundle, workload, truth_map, window, hop, nullptr);
  const double frozen_s = frozen_timer.elapsed_seconds();
  print_row("frozen", frozen);
  util::Timer adaptive_timer;
  const PassOutcome adaptive =
      run_pass(bundle, workload, truth_map, window, hop, &adapt_config);
  const double adaptive_s = adaptive_timer.elapsed_seconds();
  print_row("adaptive", adaptive);

  const double frozen_tuned = tuned_macro_f1(frozen);
  const double adaptive_tuned = tuned_macro_f1(adaptive);
  std::printf("\n# adaptive tuned macro-F1 %.4f vs frozen %.4f (delta %+.4f); "
              "%llu drifts -> %llu refits -> %llu swaps; replay %.1fs frozen, "
              "%.1fs adaptive\n",
              adaptive_tuned, frozen_tuned, adaptive_tuned - frozen_tuned,
              static_cast<unsigned long long>(adaptive.stats.drifts_detected),
              static_cast<unsigned long long>(adaptive.stats.refits_started),
              static_cast<unsigned long long>(adaptive.stats.swaps_completed),
              frozen_s, adaptive_s);
  return 0;
}
