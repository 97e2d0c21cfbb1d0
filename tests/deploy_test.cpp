#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"

#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace prodigy::deploy {
namespace {

using prodigy::testing::bitwise_equal;

telemetry::JobTelemetry make_job(std::int64_t job_id, const std::string& app,
                                 std::size_t nodes, double duration,
                                 hpas::AnomalySpec anomaly = hpas::healthy_spec(),
                                 std::vector<std::size_t> anomalous_nodes = {},
                                 std::uint64_t seed = 0) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name(app);
  config.job_id = job_id;
  config.num_nodes = nodes;
  config.duration_s = duration;
  config.seed = seed == 0 ? static_cast<std::uint64_t>(job_id) : seed;
  config.anomaly = anomaly;
  config.anomalous_nodes = std::move(anomalous_nodes);
  config.first_component_id = job_id * 100;
  return telemetry::generate_run(config);
}

TEST(DsosStoreTest, IngestAndQuery) {
  DsosStore store;
  store.ingest(make_job(1, "LAMMPS", 2, 32));
  store.ingest(make_job(2, "sw4", 3, 32));

  EXPECT_EQ(store.job_count(), 2u);
  EXPECT_TRUE(store.has_job(1));
  EXPECT_FALSE(store.has_job(99));
  EXPECT_EQ(store.job_ids(), (std::vector<std::int64_t>{1, 2}));

  const auto job = store.query_job(2);
  EXPECT_EQ(job.app, "sw4");
  EXPECT_EQ(job.nodes.size(), 3u);
  EXPECT_EQ(store.components_of(2),
            (std::vector<std::int64_t>{200, 201, 202}));
  EXPECT_THROW(store.query_job(99), std::out_of_range);
}

TEST(DsosStoreTest, QueryNodeAndDatapoints) {
  DsosStore store;
  store.ingest(make_job(5, "HACC", 2, 16));
  const auto node = store.query_node(5, 501);
  EXPECT_EQ(node.component_id, 501);
  EXPECT_EQ(node.values.rows(), 16u);
  EXPECT_THROW(store.query_node(5, 999), std::out_of_range);
  EXPECT_EQ(store.datapoint_count(), 2 * 16 * telemetry::metric_count());
}

TEST(DsosStoreTest, StreamingNodeIngestBuildsJobs) {
  DsosStore store;
  const auto job = make_job(9, "SWFFT", 3, 16);
  for (const auto& node : job.nodes) store.ingest_node(node);
  EXPECT_TRUE(store.has_job(9));
  EXPECT_EQ(store.components_of(9).size(), 3u);
  EXPECT_EQ(store.query_job(9).app, "SWFFT");
}

TEST(DsosStoreTest, NodeReingestUpdatesAppName) {
  // Regression: ingest_node used job_apps_.emplace, so a re-ingested job
  // kept its stale app name even though its telemetry was replaced.
  DsosStore store;
  auto job = make_job(4, "LAMMPS", 1, 16);
  store.ingest_node(job.nodes[0]);
  EXPECT_EQ(store.query_job(4).app, "LAMMPS");

  auto renamed = make_job(4, "sw4", 1, 16);
  store.ingest_node(renamed.nodes[0]);
  EXPECT_EQ(store.query_job(4).app, "sw4");
}

TEST(DsosStoreTest, AppendNodeAccumulatesRows) {
  DsosStore store;
  const auto job = make_job(6, "HACC", 1, 32);
  const auto& node = job.nodes[0];

  // Stream the series in as three chunks: 10 + 10 + 12 rows.
  const std::size_t cuts[] = {0, 10, 20, 32};
  for (int chunk = 0; chunk < 3; ++chunk) {
    telemetry::NodeSeries delta = node;
    delta.values = node.values.slice_rows(cuts[chunk], cuts[chunk + 1] - cuts[chunk]);
    store.append_node(delta);
  }

  EXPECT_TRUE(bitwise_equal(store.query_node(6, node.component_id).values, node.values));
  // Three appends -> three generation bumps, unlike replace semantics the
  // datapoint count grows monotonically.
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_EQ(store.datapoint_count(), node.values.size());
}

TEST(DsosStoreTest, OneRowAppendsEqualOneShotIngest) {
  // The ingestor's shape: one row per flush (stream.rows_per_flush = 1).
  const auto job = make_job(11, "LAMMPS", 1, 300);
  const auto& node = job.nodes[0];
  ASSERT_EQ(node.values.rows(), 300u);

  DsosStore appended;
  for (std::size_t r = 0; r < node.values.rows(); ++r) {
    telemetry::NodeSeries delta = node;
    delta.values = node.values.slice_rows(r, 1);
    appended.append_node(delta);
  }
  DsosStore one_shot;
  one_shot.ingest_node(node);

  const auto stored = appended.query_node(11, node.component_id);
  EXPECT_TRUE(bitwise_equal(stored.values, one_shot.query_node(11, node.component_id).values));
  EXPECT_EQ(stored.label, node.label);
  EXPECT_EQ(stored.anomaly, node.anomaly);
  EXPECT_EQ(appended.datapoint_count(), one_shot.datapoint_count());
  // One generation per append, stamped on the job.
  EXPECT_EQ(appended.generation(), 300u);
  EXPECT_EQ(appended.job_generation(11), 300u);
  EXPECT_EQ(appended.query_job(11).nodes.size(), 1u);
}

TEST(DsosStoreTest, AppendNodeKeepsGroundTruthButReassignsApp) {
  DsosStore store;
  auto job = make_job(8, "LAMMPS", 1, 16, hpas::table2_configurations().back());
  auto first = job.nodes[0];
  first.label = 1;
  store.append_node(first);

  telemetry::NodeSeries delta = first;
  delta.app = "sw4";      // job re-labeled mid-stream
  delta.label = 0;        // a live stream carries no ground truth
  delta.anomaly = "none";
  store.append_node(delta);

  const auto stored = store.query_node(8, first.component_id);
  EXPECT_EQ(stored.label, 1);
  EXPECT_EQ(stored.anomaly, first.anomaly);
  EXPECT_EQ(store.query_job(8).app, "sw4");
}

TEST(DsosStoreTest, AppendNodeRejectsColumnMismatch) {
  DsosStore store;
  const auto job = make_job(10, "SWFFT", 1, 16);
  store.append_node(job.nodes[0]);
  telemetry::NodeSeries bad = job.nodes[0];
  bad.values = tensor::Matrix(4, job.nodes[0].values.cols() + 1);
  bad.app = "renamed";
  const auto generation = store.generation();
  EXPECT_THROW(store.append_node(bad), std::invalid_argument);
  // A rejected append leaves the store as it was.
  EXPECT_EQ(store.generation(), generation);
  EXPECT_EQ(store.query_job(10).app, "SWFFT");
  EXPECT_TRUE(bitwise_equal(store.query_node(10, job.nodes[0].component_id).values,
                            job.nodes[0].values));
}

TEST(DsosStoreTest, ReingestReplacesJob) {
  DsosStore store;
  store.ingest(make_job(1, "LAMMPS", 2, 16));
  store.ingest(make_job(1, "LAMMPS", 2, 16, hpas::healthy_spec(), {}, 777));
  EXPECT_EQ(store.job_count(), 1u);
}

TEST(DsosStoreTest, MoveTransfersDataAndGenerations) {
  DsosStore source;
  source.ingest(make_job(1, "LAMMPS", 2, 16));
  source.ingest(make_job(2, "sw4", 3, 16));
  const auto gen_before = source.job_generation(2);
  ASSERT_GT(gen_before, 0u);

  DsosStore moved(std::move(source));
  EXPECT_EQ(moved.job_count(), 2u);
  EXPECT_EQ(moved.query_job(2).nodes.size(), 3u);
  EXPECT_EQ(moved.job_generation(2), gen_before);
  EXPECT_EQ(moved.generation(), 2u);

  DsosStore assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.job_count(), 2u);
  EXPECT_EQ(assigned.job_generation(2), gen_before);
}

TEST(DsosStoreTest, ReingestBumpsGeneration) {
  DsosStore store;
  store.ingest(make_job(1, "LAMMPS", 2, 16));
  const auto g1 = store.job_generation(1);
  store.ingest(make_job(1, "LAMMPS", 2, 16, hpas::healthy_spec(), {}, 777));
  EXPECT_GT(store.job_generation(1), g1);
  EXPECT_EQ(store.generation(), 2u);
}

TEST(DsosStoreTest, SaveLoadRoundTrip) {
  DsosStore store;
  store.ingest(make_job(7, "ExaMiniMD", 2, 24));
  const auto path =
      (std::filesystem::temp_directory_path() / "prodigy_dsos_test.bin").string();
  store.save(path);
  const DsosStore loaded = DsosStore::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.job_count(), 1u);
  const auto a = store.query_node(7, 700);
  const auto b = loaded.query_node(7, 700);
  EXPECT_EQ(a.app, b.app);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const double x = a.values.data()[i];
    const double y = b.values.data()[i];
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(y));
    } else {
      EXPECT_DOUBLE_EQ(x, y);
    }
  }
}

class AnalyticsServiceTest : public ::testing::Test {
 protected:
  AnalyticsServiceTest() {
    // Training store: healthy runs plus a few memleak runs so chi-square
    // selection has both classes (paper: 24 anomalous samples suffice).
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
    // Query job 50: memleak on nodes 1 and 3 only (the Fig. 7 scenario).
    store_.ingest(make_job(50, "LAMMPS", 4, 150, memleak, {1, 3}));
  }

  TrainFromStoreOptions fast_options() {
    TrainFromStoreOptions options;
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

  DsosStore store_;
  std::vector<std::int64_t> train_jobs_;
};

TEST_F(AnalyticsServiceTest, EndToEndTrainingAndJobAnalysis) {
  const AnalyticsService service =
      AnalyticsService::train_from_store(store_, train_jobs_, fast_options());

  const JobAnalysis analysis = service.analyze_job(50);
  EXPECT_EQ(analysis.job_id, 50);
  EXPECT_EQ(analysis.app, "LAMMPS");
  ASSERT_EQ(analysis.nodes.size(), 4u);
  EXPECT_GT(analysis.seconds, 0.0);

  // Nodes 1 and 3 carry the memleak; they must score higher than 0 and 2,
  // and the binary verdicts should match the injected ground truth.
  const auto& nodes = analysis.nodes;
  EXPECT_GT(std::min(nodes[1].score, nodes[3].score),
            std::max(nodes[0].score, nodes[2].score));
  EXPECT_TRUE(nodes[1].anomalous);
  EXPECT_TRUE(nodes[3].anomalous);
  EXPECT_FALSE(nodes[0].anomalous);
  EXPECT_FALSE(nodes[2].anomalous);

  // Anomalous nodes carry CoMTE explanations; healthy nodes do not.
  EXPECT_TRUE(nodes[1].explanation.has_value());
  EXPECT_FALSE(nodes[0].explanation.has_value());
  if (nodes[1].explanation->success) {
    EXPECT_GE(nodes[1].explanation->changes.size(), 1u);
  }
}

TEST_F(AnalyticsServiceTest, StageBreakdownCoversRequestLatency) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  const JobAnalysis analysis = service.analyze_job(50);

  ASSERT_EQ(analysis.stages.size(), 4u);
  EXPECT_EQ(analysis.stages[0].stage, "query");
  EXPECT_EQ(analysis.stages[1].stage, "features");
  EXPECT_EQ(analysis.stages[2].stage, "score");
  EXPECT_EQ(analysis.stages[3].stage, "verdicts");

  double stage_sum = 0.0;
  for (const auto& stage : analysis.stages) {
    EXPECT_GE(stage.seconds, 0.0);
    stage_sum += stage.seconds;
  }
  // The stages cover contiguous regions of analyze_job, so they must account
  // for (almost) the whole end-to-end latency.
  EXPECT_LE(stage_sum, analysis.seconds);
  EXPECT_NEAR(stage_sum, analysis.seconds, 0.10 * analysis.seconds + 1e-3);

  const std::string report = render_markdown_report(analysis);
  EXPECT_NE(report.find("### Stage latency breakdown"), std::string::npos);
  EXPECT_NE(report.find("| features |"), std::string::npos);
}

void expect_identical_verdicts(const NodeVerdict& node, const NodeVerdict& job_entry) {
  EXPECT_EQ(node.component_id, job_entry.component_id);
  EXPECT_EQ(node.anomalous, job_entry.anomalous);
  EXPECT_EQ(node.score, job_entry.score);
  EXPECT_EQ(node.threshold, job_entry.threshold);
  ASSERT_EQ(node.explanation.has_value(), job_entry.explanation.has_value());
  if (!node.explanation) return;
  const comte::Explanation& a = *node.explanation;
  const comte::Explanation& b = *job_entry.explanation;
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.distractor_row, b.distractor_row);
  EXPECT_EQ(a.original_probability, b.original_probability);
  EXPECT_EQ(a.final_probability, b.final_probability);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.changes.size(), b.changes.size());
  for (std::size_t c = 0; c < a.changes.size(); ++c) {
    EXPECT_EQ(a.changes[c].metric, b.changes[c].metric);
    EXPECT_EQ(a.changes[c].mean_delta, b.changes[c].mean_delta);
  }
}

std::uint64_t query_job_calls() {
  return util::MetricsRegistry::global()
      .histogram("prodigy_stage_deploy_dsos_query_job_seconds")
      .snapshot()
      .count;
}

// analyze_node's contract: it reads only its node (never query_job) and
// returns exactly that node's entry of analyze_job.
JobAnalysis check_node_level_matches_job_level(const AnalyticsService& service,
                                               const DsosStore& store,
                                               std::int64_t job_id) {
  const std::vector<std::int64_t> components = store.components_of(job_id);
  std::vector<NodeVerdict> node_level;
  const std::uint64_t queries_before = query_job_calls();
  for (const std::int64_t component : components) {
    node_level.push_back(service.analyze_node(job_id, component));
  }
  EXPECT_EQ(query_job_calls(), queries_before) << "analyze_node called query_job";

  const JobAnalysis analysis = service.analyze_job(job_id);
  EXPECT_FALSE(analysis.from_cache);
  EXPECT_EQ(analysis.nodes.size(), node_level.size());
  if (analysis.nodes.size() != node_level.size()) return analysis;
  for (std::size_t i = 0; i < node_level.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    expect_identical_verdicts(node_level[i], analysis.nodes[i]);
  }

  EXPECT_THROW(service.analyze_node(job_id, 424242), std::out_of_range);
  return analysis;
}

TEST_F(AnalyticsServiceTest, NodeLevelAnalysisMatchesJobLevel) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  check_node_level_matches_job_level(service, store_, 50);
}

TEST_F(AnalyticsServiceTest, NodeLevelExplanationsMatchJobLevel) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/true);
  const JobAnalysis analysis = check_node_level_matches_job_level(service, store_, 50);
  std::size_t explained = 0;
  for (const auto& node : analysis.nodes) explained += node.explanation ? 1 : 0;
  EXPECT_GE(explained, 1u) << "no anomalous node carried an explanation to compare";
}

TEST_F(AnalyticsServiceTest, MarkdownReportContainsVerdictsAndExplanations) {
  const AnalyticsService service =
      AnalyticsService::train_from_store(store_, train_jobs_, fast_options());
  const JobAnalysis analysis = service.analyze_job(50);
  const std::string report = render_markdown_report(analysis);
  EXPECT_NE(report.find("## Anomaly detection: job 50"), std::string::npos);
  EXPECT_NE(report.find("| component | verdict |"), std::string::npos);
  EXPECT_NE(report.find("**ANOMALOUS**"), std::string::npos);
  EXPECT_NE(report.find("healthy"), std::string::npos);
  // At least one explanation section for an anomalous node.
  EXPECT_NE(report.find("### Why component"), std::string::npos);
  EXPECT_NE(report.find("would be classified healthy if"), std::string::npos);
}

TEST_F(AnalyticsServiceTest, ExplanationsCanBeDisabled) {
  const AnalyticsService service =
      AnalyticsService::train_from_store(store_, train_jobs_, fast_options(),
                                         /*explain=*/false);
  const JobAnalysis analysis = service.analyze_job(50);
  for (const auto& node : analysis.nodes) {
    EXPECT_FALSE(node.explanation.has_value());
  }
}

TEST_F(AnalyticsServiceTest, UnknownJobThrows) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), false);
  EXPECT_THROW(service.analyze_job(12345), std::out_of_range);
}

TEST_F(AnalyticsServiceTest, TrainFromStoreRequiresJobs) {
  EXPECT_THROW(AnalyticsService::train_from_store(store_, {}, fast_options()),
               std::invalid_argument);
}

}  // namespace
}  // namespace prodigy::deploy
