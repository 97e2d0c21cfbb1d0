// Streaming-subsystem benchmark: sustained ingest throughput and per-window
// scoring latency for the bounded-queue ingestor -> sliding-window scorer ->
// alert bus chain.  Replays a multi-node run as an unpaced firehose (the
// worst case: producers never sleep) through several window/hop and
// backpressure configurations.
//
//   stream_throughput [--nodes 32] [--duration 600] [--train-jobs 8]
//                     [--train-nodes 4] [--train-duration 80]
//                     [--epochs 120] [--features 64]
//
// Output is a markdown table (pasted into EXPERIMENTS.md).
#include "bench_common.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "hpas/anomalies.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <vector>

namespace {

using namespace prodigy;

telemetry::JobTelemetry make_job(std::int64_t job_id, std::size_t nodes,
                                 double duration,
                                 hpas::AnomalySpec anomaly = hpas::healthy_spec(),
                                 std::vector<std::size_t> anomalous_nodes = {}) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.job_id = job_id;
  config.num_nodes = nodes;
  config.duration_s = duration;
  config.seed = static_cast<std::uint64_t>(job_id) * 7919 + 13;
  config.anomaly = std::move(anomaly);
  config.anomalous_nodes = std::move(anomalous_nodes);
  config.first_component_id = job_id * 100;
  return telemetry::generate_run(config);
}

/// One frame per sample tick: row t of every node's series (ldmsd aggregator
/// flush shape, same as the prodigy_stream replay tool).
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

struct PassConfig {
  const char* label;
  std::size_t window;
  std::size_t hop;
  stream::BackpressurePolicy policy;
  std::size_t queue_capacity;
};

struct PassResult {
  double samples_per_sec = 0.0;
  double realtime_multiple = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t drops = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

PassResult run_pass(const core::ModelBundle& bundle,
                    const std::vector<stream::SampleBatch>& workload,
                    const PassConfig& pass) {
  auto& histogram = util::MetricsRegistry::global().histogram(
      "prodigy_stream_window_score_seconds");
  histogram.reset();  // isolate this pass's latency distribution

  deploy::DsosStore store;
  stream::EventBus bus;
  stream::OnlineScorerConfig scorer_config;
  scorer_config.window = pass.window;
  scorer_config.hop = pass.hop;
  stream::OnlineScorer scorer(bundle, bus, scorer_config);
  stream::IngestorConfig ingest_config;
  ingest_config.policy = pass.policy;
  ingest_config.queue_capacity = pass.queue_capacity;
  stream::StreamIngestor ingestor(store, ingest_config, &scorer);

  util::Timer wall;
  for (const auto& batch : workload) ingestor.offer(batch);  // copies: reusable
  ingestor.stop();
  scorer.drain();
  const double elapsed = wall.elapsed_seconds();

  const auto stats = ingestor.stats();
  const auto after = histogram.snapshot();
  PassResult result;
  result.samples_per_sec =
      elapsed > 0 ? static_cast<double>(stats.flushed_samples) / elapsed : 0.0;
  result.realtime_multiple =
      elapsed > 0 ? static_cast<double>(workload.size()) / elapsed : 0.0;
  result.windows = scorer.windows_scored();
  result.drops = stats.dropped_samples;
  // The histogram was reset on entry, so the snapshot is this pass alone.
  // A pass that scored nothing (fully shed) has no latency distribution.
  if (after.count > 0) {
    result.p50_ms = after.p50 * 1e3;
    result.p99_ms = after.p99 * 1e3;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto nodes = flags.count("nodes", static_cast<std::size_t>(32));
  const double duration = flags.get("duration", 600.0);
  const auto train_jobs = flags.count("train-jobs", static_cast<std::size_t>(8));
  const auto train_nodes = flags.count("train-nodes", static_cast<std::size_t>(4));
  const double train_duration = flags.get("train-duration", 80.0);

  // --- Train a budget bundle from a small batch store (same recipe as the
  // service_throughput bench).
  deploy::DsosStore train_store;
  std::vector<std::int64_t> train_ids;
  const auto memleak = hpas::table2_configurations().back();
  for (std::size_t i = 0; i < train_jobs; ++i) {
    const auto job_id = static_cast<std::int64_t>(i + 1);
    if (i % 4 == 3) {
      std::vector<std::size_t> bad;
      for (std::size_t n = 0; n < train_nodes; n += 2) bad.push_back(n);
      train_store.ingest(make_job(job_id, train_nodes, train_duration, memleak, bad));
    } else {
      train_store.ingest(make_job(job_id, train_nodes, train_duration));
    }
    train_ids.push_back(job_id);
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
  std::printf("# trained budget bundle in %.1fs (%zu jobs x %zu nodes)\n",
              train_timer.elapsed_seconds(), train_jobs, train_nodes);

  // --- Replay workload: one job, half its nodes carrying a memleak.
  std::vector<std::size_t> bad;
  for (std::size_t n = 0; n < nodes; n += 2) bad.push_back(n);
  const auto workload =
      batches_from_run(make_job(9001, nodes, duration, memleak, bad));
  std::size_t total_samples = 0;
  for (const auto& batch : workload) total_samples += batch.sample_count();
  std::printf("# workload: %zu ticks x %zu nodes = %zu samples (1 Hz firehose, "
              "unpaced)\n\n",
              workload.size(), nodes, total_samples);

  const PassConfig passes[] = {
      {"block", 64, 16, stream::BackpressurePolicy::Block, 256},
      {"block", 64, 64, stream::BackpressurePolicy::Block, 256},
      {"block", 32, 8, stream::BackpressurePolicy::Block, 256},
      {"drop-oldest, queue 4", 64, 16, stream::BackpressurePolicy::DropOldest, 4},
  };
  std::printf("## stream_throughput (%zu-node firehose replay)\n\n", nodes);
  std::printf("| policy | W | H | samples/s | x real time | windows | "
              "score p50 (ms) | score p99 (ms) | dropped |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& pass : passes) {
    const PassResult result = run_pass(bundle, workload, pass);
    std::printf("| %s | %zu | %zu | %.0f | %.0fx | %llu | ", pass.label,
                pass.window, pass.hop, result.samples_per_sec,
                result.realtime_multiple,
                static_cast<unsigned long long>(result.windows));
    if (result.windows > 0) {
      std::printf("%.2f | %.2f | ", result.p50_ms, result.p99_ms);
    } else {
      std::printf("- | - | ");
    }
    std::printf("%llu |\n", static_cast<unsigned long long>(result.drops));
  }
  return 0;
}
