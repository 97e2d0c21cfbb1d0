// End-to-end online scoring: the streaming path (ingestor -> sliding windows
// -> OnlineScorer -> EventBus) must emit exactly the verdicts the batch
// AnalyticsService computes for the equivalent windows — same model, same
// preprocessing, bit-identical scores.
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_scorer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>
#include <vector>

namespace {

using namespace prodigy;

telemetry::JobTelemetry make_job(std::int64_t job_id, const std::string& app,
                                 std::size_t nodes, double duration,
                                 hpas::AnomalySpec anomaly = hpas::healthy_spec(),
                                 std::vector<std::size_t> anomalous_nodes = {}) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name(app);
  config.job_id = job_id;
  config.num_nodes = nodes;
  config.duration_s = duration;
  config.seed = static_cast<std::uint64_t>(job_id);
  config.anomaly = std::move(anomaly);
  config.anomalous_nodes = std::move(anomalous_nodes);
  config.first_component_id = job_id * 100;
  return telemetry::generate_run(config);
}

/// One frame per tick, rows for every node (the replay-tool shape).
std::vector<stream::SampleBatch> batches_from_job(const telemetry::JobTelemetry& job) {
  std::size_t ticks = 0;
  for (const auto& node : job.nodes) ticks = std::max(ticks, node.values.rows());
  std::vector<stream::SampleBatch> batches;
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

class StreamScoringTest : public ::testing::Test {
 protected:
  StreamScoringTest() {
    std::int64_t job = 1;
    for (int i = 0; i < 6; ++i) {
      store_.ingest(make_job(job, "LAMMPS", 4, 150));
      train_jobs_.push_back(job++);
    }
    const auto memleak = hpas::table2_configurations().back();
    for (int i = 0; i < 2; ++i) {
      store_.ingest(make_job(job, "LAMMPS", 4, 150, memleak));
      train_jobs_.push_back(job++);
    }
  }

  deploy::TrainFromStoreOptions fast_options() {
    deploy::TrainFromStoreOptions options;
    options.preprocess.trim_seconds = 20;
    options.top_k_features = 64;
    options.model.vae.encoder_hidden = {24, 8};
    options.model.vae.latent_dim = 3;
    options.model.train.epochs = 120;
    options.model.train.batch_size = 16;
    options.model.train.learning_rate = 2e-3;
    options.model.train.validation_split = 0.0;
    options.model.train.early_stopping_patience = 0;
    return options;
  }

  deploy::DsosStore store_;
  std::vector<std::int64_t> train_jobs_;
};

TEST_F(StreamScoringTest, StreamVerdictsMatchBatchScoringExactly) {
  const auto service = deploy::AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  const core::ModelBundle& bundle = service.bundle();

  // Replay job 50 (memleak on nodes 1 and 3) through the streaming stack.
  const auto memleak = hpas::table2_configurations().back();
  const auto replay_job = make_job(50, "LAMMPS", 4, 150, memleak, {1, 3});

  stream::EventBus bus;
  std::mutex verdict_mutex;
  std::map<std::pair<std::int64_t, std::uint64_t>, stream::VerdictEvent> verdicts;
  bus.subscribe([&](const stream::VerdictEvent& event) {
    std::lock_guard lock(verdict_mutex);
    verdicts[{event.component_id, event.window_index}] = event;
  });

  stream::OnlineScorerConfig scorer_config;
  scorer_config.window = 64;
  scorer_config.hop = 16;
  // This test asserts EXPECT_DOUBLE_EQ against the batch oracle; pin the
  // bit-exact full-recompute path (IncrementalScoringMatchesFullRecompute
  // covers the default incremental mode with its documented tolerances).
  scorer_config.extraction = stream::ExtractionMode::kFullRecompute;
  stream::OnlineScorer scorer(bundle, bus, scorer_config);
  ASSERT_EQ(scorer.extraction_mode(), stream::ExtractionMode::kFullRecompute);

  deploy::DsosStore live_store;
  stream::StreamIngestor ingestor(live_store, {}, &scorer);
  for (auto& batch : batches_from_job(replay_job)) {
    EXPECT_TRUE(ingestor.offer(std::move(batch)));
  }
  ingestor.stop();
  scorer.drain();

  // Block policy on an unsaturated queue: nothing may be lost.
  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.dropped_samples, 0u);
  EXPECT_EQ(stats.offered_samples, stats.flushed_samples);
  EXPECT_EQ(scorer.score_errors(), 0u);

  // 150 rows, W=64, H=16 -> windows 0..5 per node, 4 nodes.
  constexpr std::size_t kWindowsPerNode = 6;
  ASSERT_EQ(verdicts.size(), 4 * kWindowsPerNode);
  EXPECT_EQ(scorer.windows_scored(), 4 * kWindowsPerNode);
  EXPECT_EQ(bus.verdicts_published(), 4 * kWindowsPerNode);

  // Batch oracle: every streamed window becomes one synthetic node of one
  // batch job, scored by the AnalyticsService with the same preprocessing.
  telemetry::JobTelemetry oracle_job;
  oracle_job.job_id = 1;
  oracle_job.app = "LAMMPS";
  std::vector<const stream::VerdictEvent*> order;
  for (const auto& [key, event] : verdicts) {
    const auto* source = &replay_job.nodes[0];
    for (const auto& node : replay_job.nodes) {
      if (node.component_id == key.first) source = &node;
    }
    telemetry::NodeSeries window;
    window.job_id = 1;
    window.component_id = static_cast<std::int64_t>(order.size());
    window.app = oracle_job.app;
    window.values = source->values.slice_rows(
        static_cast<std::size_t>(key.second) * scorer_config.hop,
        scorer_config.window);
    oracle_job.nodes.push_back(std::move(window));
    order.push_back(&event);

    // The verdict's span names the rows it covers.
    EXPECT_EQ(event.window_start_ts,
              static_cast<std::int64_t>(key.second * scorer_config.hop));
    EXPECT_EQ(event.window_end_ts,
              static_cast<std::int64_t>(key.second * scorer_config.hop +
                                        scorer_config.window - 1));
  }
  deploy::DsosStore oracle_store;
  oracle_store.ingest(oracle_job);
  const deploy::AnalyticsService oracle(oracle_store, bundle,
                                        scorer_config.preprocess,
                                        /*explain=*/false);
  const deploy::JobAnalysis analysis = oracle.analyze_job(1);
  ASSERT_EQ(analysis.nodes.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_DOUBLE_EQ(analysis.nodes[i].score, order[i]->score);
    EXPECT_EQ(analysis.nodes[i].anomalous, order[i]->anomalous);
    EXPECT_DOUBLE_EQ(analysis.nodes[i].threshold, order[i]->threshold);
  }

  // The streamed rows also landed in the live store, byte for byte.
  for (const auto& node : replay_job.nodes) {
    const auto stored = live_store.query_node(node.job_id, node.component_id);
    ASSERT_EQ(stored.values.rows(), node.values.rows());
  }
}

TEST_F(StreamScoringTest, IncrementalScoringMatchesFullRecompute) {
  const auto service = deploy::AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  const core::ModelBundle& bundle = service.bundle();

  const auto memleak = hpas::table2_configurations().back();
  const auto replay_job = make_job(51, "LAMMPS", 4, 150, memleak, {1, 3});

  // Score the same replay twice: once per extraction mode.
  auto run_replay = [&](stream::ExtractionMode mode) {
    stream::EventBus bus;
    std::mutex verdict_mutex;
    std::map<std::pair<std::int64_t, std::uint64_t>, stream::VerdictEvent>
        verdicts;
    bus.subscribe([&](const stream::VerdictEvent& event) {
      std::lock_guard lock(verdict_mutex);
      verdicts[{event.component_id, event.window_index}] = event;
    });
    stream::OnlineScorerConfig scorer_config;
    scorer_config.window = 64;
    scorer_config.hop = 16;
    scorer_config.extraction = mode;
    stream::OnlineScorer scorer(bundle, bus, scorer_config);
    EXPECT_EQ(scorer.extraction_mode(), mode);
    deploy::DsosStore live_store;
    stream::StreamIngestor ingestor(live_store, {}, &scorer);
    for (auto& batch : batches_from_job(replay_job)) {
      EXPECT_TRUE(ingestor.offer(std::move(batch)));
    }
    ingestor.stop();
    scorer.drain();
    EXPECT_EQ(scorer.score_errors(), 0u);
    EXPECT_EQ(scorer.windows_skipped(), 0u);
    return verdicts;
  };

  const auto full = run_replay(stream::ExtractionMode::kFullRecompute);
  const auto incremental = run_replay(stream::ExtractionMode::kIncremental);

  ASSERT_EQ(full.size(), incremental.size());
  ASSERT_EQ(full.size(), 4u * 6u);
  for (const auto& [key, expect] : full) {
    const auto it = incremental.find(key);
    ASSERT_NE(it, incremental.end());
    const auto& got = it->second;
    EXPECT_EQ(got.window_start_ts, expect.window_start_ts);
    EXPECT_EQ(got.window_end_ts, expect.window_end_ts);
    // The incremental engine is bit-exact on every feature, so scores and
    // verdicts are identical.
    EXPECT_EQ(got.score, expect.score);
    EXPECT_EQ(got.anomalous, expect.anomalous)
        << "node " << key.first << " window " << key.second;
  }
}

TEST_F(StreamScoringTest, DisjointWindowsCoverTheRunOnce) {
  const auto service = deploy::AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);

  stream::EventBus bus({.debounce_windows = 1});
  std::mutex verdict_mutex;
  std::vector<stream::VerdictEvent> verdicts;
  bus.subscribe([&](const stream::VerdictEvent& event) {
    std::lock_guard lock(verdict_mutex);
    verdicts.push_back(event);
  });

  // hop == window: back-to-back disjoint windows.
  stream::OnlineScorerConfig scorer_config;
  scorer_config.window = 32;
  scorer_config.hop = 32;
  stream::OnlineScorer scorer(service.bundle(), bus, scorer_config);

  deploy::DsosStore live_store;
  stream::StreamIngestor ingestor(live_store, {}, &scorer);
  const auto replay_job = make_job(60, "LAMMPS", 2, 130);
  for (auto& batch : batches_from_job(replay_job)) {
    ASSERT_TRUE(ingestor.offer(std::move(batch)));
  }
  ingestor.stop();
  scorer.drain();

  // 130 rows / 32 -> windows 0..3 per node; the 2-row tail never scores.
  EXPECT_EQ(scorer.windows_scored(), 2 * 4u);
  std::lock_guard lock(verdict_mutex);
  for (const auto& event : verdicts) {
    EXPECT_EQ(event.window_start_ts % 32, 0);
    EXPECT_EQ(event.window_end_ts, event.window_start_ts + 31);
  }
  // Debounce bookkeeping stays balanced even at K=1.
  EXPECT_EQ(bus.verdicts_published(),
            bus.transitions_published() + bus.suppressed());
}

}  // namespace
