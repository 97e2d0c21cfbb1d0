// Concurrency/stress layer for the deployment path: shared-read DsosStore
// under writer pressure, the parallel analyze_job fan-out, and the
// generation-keyed result cache.  Every test here is meant to run clean
// under -fsanitize=thread (see the CI tsan job).
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

namespace prodigy::deploy {
namespace {

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

/// A node series whose every reading equals `version` — a torn read (data
/// mixed from two ingests) is then detectable as a non-constant matrix.
telemetry::NodeSeries constant_node(std::int64_t job_id, std::int64_t component_id,
                                    double version) {
  telemetry::NodeSeries node;
  node.job_id = job_id;
  node.component_id = component_id;
  node.app = "stress";
  node.values = tensor::Matrix(32, 8, version);
  return node;
}

TEST(DsosConcurrencyTest, NoTornReadsUnderConcurrentReingest) {
  DsosStore store;
  constexpr std::int64_t kJob = 1;
  constexpr int kComponents = 3;
  constexpr int kVersions = 60;
  for (int c = 0; c < kComponents; ++c) {
    store.ingest_node(constant_node(kJob, c, 0.0));
  }

  // Start gate instead of wall-clock timing: writers hold until every reader
  // is live, and each reader completes at least one full iteration before
  // honoring stop — so the overlap (and reads > 0) is guaranteed even on a
  // one-core host where writers could otherwise finish before any reader ran.
  constexpr int kReaders = 4;
  std::latch readers_live(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&store, &readers_live, w] {
      readers_live.wait();
      for (int v = 1; v <= kVersions; ++v) {
        telemetry::JobTelemetry job;
        job.job_id = kJob;
        job.app = "stress";
        for (int c = 0; c < kComponents; ++c) {
          job.nodes.push_back(constant_node(kJob, c, w * 1000.0 + v));
        }
        store.ingest(job);
      }
    });
  }

  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      readers_live.count_down();
      do {
        const auto job = store.query_job(kJob);
        for (const auto& node : job.nodes) {
          const double first = node.values(0, 0);
          for (const double value : node.values.storage()) {
            ASSERT_EQ(value, first) << "torn read: mixed ingest versions";
          }
        }
        const auto single = store.query_node(kJob, 0);
        const double first = single.values(0, 0);
        for (const double value : single.values.storage()) {
          ASSERT_EQ(value, first) << "torn read in query_node";
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  // 3 seed ingest_node calls + 2 writers x kVersions job ingests.
  EXPECT_EQ(store.generation(), 3u + 2u * kVersions);
}

TEST(DsosConcurrencyTest, AppendsNeverTearUnderConcurrentReads) {
  // The final series every component grows into, one row per append (the
  // ingestor's flush shape).  Every element is distinct, so a snapshot that
  // mixed rows or saw a half-written row is not a prefix of it.
  constexpr std::int64_t kJob = 2;
  constexpr int kComponents = 2;
  constexpr std::size_t kRows = 400;
  constexpr std::size_t kCols = 8;
  tensor::Matrix final_series(kRows, kCols);
  for (std::size_t i = 0; i < final_series.size(); ++i) {
    final_series.data()[i] = static_cast<double>(i) + 0.25;
  }
  const auto append_row = [&](DsosStore& store, int component, std::size_t r) {
    telemetry::NodeSeries delta;
    delta.job_id = kJob;
    delta.component_id = component;
    delta.app = "stress";
    delta.values = final_series.slice_rows(r, 1);
    store.append_node(delta);
  };
  const auto is_prefix = [&](const tensor::Matrix& snapshot) {
    return snapshot.cols() == kCols && snapshot.rows() <= kRows &&
           std::memcmp(snapshot.data(), final_series.data(),
                       snapshot.size() * sizeof(double)) == 0;
  };

  DsosStore store;
  for (int c = 0; c < kComponents; ++c) append_row(store, c, 0);

  // Same start gate as NoTornReadsUnderConcurrentReingest: the writer holds
  // until every reader is live, and each reader finishes an iteration before
  // honoring stop.
  constexpr int kReaders = 3;
  std::latch readers_live(kReaders);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    readers_live.wait();
    for (std::size_t r = 1; r < kRows; ++r) {
      for (int c = 0; c < kComponents; ++c) append_row(store, c, r);
    }
  });

  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      readers_live.count_down();
      std::size_t node_rows = 0;
      std::vector<std::size_t> job_rows(kComponents, 0);
      do {
        const int component = reader % kComponents;
        const auto node = store.query_node(kJob, component);
        ASSERT_TRUE(is_prefix(node.values)) << "torn query_node snapshot";
        ASSERT_GE(node.values.rows(), node_rows) << "query_node rows shrank";
        node_rows = node.values.rows();

        const auto job = store.query_job(kJob);
        ASSERT_EQ(job.nodes.size(), static_cast<std::size_t>(kComponents));
        for (int c = 0; c < kComponents; ++c) {
          const tensor::Matrix& values = job.nodes[c].values;
          ASSERT_TRUE(is_prefix(values)) << "torn query_job snapshot";
          ASSERT_GE(values.rows(), job_rows[c]) << "query_job rows shrank";
          job_rows[c] = values.rows();
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  for (int c = 0; c < kComponents; ++c) {
    const auto node = store.query_node(kJob, c);
    EXPECT_EQ(node.values.rows(), kRows);
    EXPECT_TRUE(is_prefix(node.values));
  }
  EXPECT_EQ(store.generation(), kRows * kComponents);
}

TEST(DsosConcurrencyTest, GenerationIsMonotonicPerJob) {
  DsosStore store;
  store.ingest(make_job(1, "LAMMPS", 2, 16));
  const auto g1 = store.job_generation(1);
  EXPECT_GT(g1, 0u);
  EXPECT_EQ(store.job_generation(999), 0u);  // unknown job

  store.ingest(make_job(2, "sw4", 2, 16));
  EXPECT_EQ(store.job_generation(1), g1);  // untouched job keeps its stamp
  store.ingest(make_job(1, "LAMMPS", 2, 16, hpas::healthy_spec(), {}, 777));
  EXPECT_GT(store.job_generation(1), store.job_generation(2));

  std::uint64_t snapshot_gen = 0;
  const auto job = store.query_job(1, &snapshot_gen);
  EXPECT_EQ(snapshot_gen, store.job_generation(1));
  EXPECT_EQ(job.nodes.size(), 2u);
}

// Regression: the move constructor used to read other.nodes_ without taking
// other.mutex_, racing with concurrent ingest into the source store.
TEST(DsosConcurrencyTest, MoveConstructorLocksSourceStore) {
  DsosStore source;
  source.ingest(make_job(1, "LAMMPS", 2, 16));
  source.ingest(make_job(2, "sw4", 2, 16));

  std::thread writer([&source] {
    for (int i = 0; i < 50; ++i) {
      source.ingest_node(constant_node(3, i, static_cast<double>(i)));
    }
  });
  const DsosStore moved(std::move(source));
  writer.join();

  // The move happened at some point in the writer's stream: the destination
  // holds a consistent prefix (at least the two seed jobs), and the
  // moved-from store keeps absorbing writes without crashing.
  EXPECT_GE(moved.job_count(), 2u);
  EXPECT_TRUE(moved.has_job(1));
  EXPECT_EQ(moved.query_job(2).app, "sw4");
  EXPECT_NO_THROW(source.job_count());
}

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  ServiceConcurrencyTest() {
    std::int64_t job = 1;
    for (int i = 0; i < 4; ++i) {
      store_.ingest(make_job(job, "LAMMPS", 3, 100));
      train_jobs_.push_back(job++);
    }
    const auto memleak = hpas::table2_configurations().back();
    for (int i = 0; i < 2; ++i) {
      store_.ingest(make_job(job, "LAMMPS", 3, 100, memleak));
      train_jobs_.push_back(job++);
    }
    store_.ingest(make_job(50, "LAMMPS", 3, 100, memleak, {1}));
    store_.ingest(make_job(51, "LAMMPS", 3, 100));
    store_.ingest(make_job(52, "LAMMPS", 3, 100, memleak, {0, 2}));
  }

  TrainFromStoreOptions fast_options() {
    TrainFromStoreOptions options;
    options.preprocess.trim_seconds = 20;
    options.top_k_features = 48;
    options.model.vae.encoder_hidden = {16, 6};
    options.model.vae.latent_dim = 2;
    options.model.train.epochs = 60;
    options.model.train.batch_size = 16;
    options.model.train.learning_rate = 2e-3;
    options.model.train.validation_split = 0.0;
    options.model.train.early_stopping_patience = 0;
    options.explanations =
        comte::ComteConfig{/*max_metrics=*/4, /*distractor_candidates=*/3,
                           /*restarts=*/2};
    return options;
  }

  DsosStore store_;
  std::vector<std::int64_t> train_jobs_;
};

// Tentpole guarantee: analyze_job is bit-identical no matter how many pool
// workers fan out the per-node work — node order, scores, verdicts, and
// CoMTE explanation contents all match.
TEST_F(ServiceConcurrencyTest, GoldenDeterminismAcrossConcurrency) {
  AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/true);
  service.set_cache_capacity(0);  // force both runs through the full path

  util::ThreadPool pool1(1), pool8(8);
  service.set_thread_pool(&pool1);
  const JobAnalysis serial = service.analyze_job(50);
  service.set_thread_pool(&pool8);
  const JobAnalysis parallel = service.analyze_job(50);

  ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
  EXPECT_EQ(serial.store_generation, parallel.store_generation);
  for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
    const NodeVerdict& a = serial.nodes[i];
    const NodeVerdict& b = parallel.nodes[i];
    EXPECT_EQ(a.component_id, b.component_id);
    EXPECT_EQ(a.anomalous, b.anomalous);
    EXPECT_EQ(a.score, b.score) << "score differs at node " << i;  // bit-exact
    EXPECT_EQ(a.threshold, b.threshold);
    ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
    if (a.explanation) {
      EXPECT_EQ(a.explanation->success, b.explanation->success);
      EXPECT_EQ(a.explanation->distractor_row, b.explanation->distractor_row);
      EXPECT_EQ(a.explanation->original_probability,
                b.explanation->original_probability);
      EXPECT_EQ(a.explanation->final_probability, b.explanation->final_probability);
      ASSERT_EQ(a.explanation->changes.size(), b.explanation->changes.size());
      for (std::size_t c = 0; c < a.explanation->changes.size(); ++c) {
        EXPECT_EQ(a.explanation->changes[c].metric,
                  b.explanation->changes[c].metric);
        EXPECT_EQ(a.explanation->changes[c].mean_delta,
                  b.explanation->changes[c].mean_delta);
      }
    }
  }
}

TEST_F(ServiceConcurrencyTest, CacheHitServesIdenticalAnalysis) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  auto& hits =
      util::MetricsRegistry::global().counter("prodigy_deploy_cache_hits_total");
  const auto hits_before = hits.value();

  const JobAnalysis cold = service.analyze_job(50);
  EXPECT_FALSE(cold.from_cache);
  const JobAnalysis warm = service.analyze_job(50);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_GE(hits.value(), hits_before + 1);

  EXPECT_EQ(warm.store_generation, cold.store_generation);
  ASSERT_EQ(warm.nodes.size(), cold.nodes.size());
  for (std::size_t i = 0; i < cold.nodes.size(); ++i) {
    EXPECT_EQ(warm.nodes[i].score, cold.nodes[i].score);
    EXPECT_EQ(warm.nodes[i].anomalous, cold.nodes[i].anomalous);
  }
}

TEST_F(ServiceConcurrencyTest, ReingestInvalidatesCachedAnalysis) {
  const AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);

  const JobAnalysis before = service.analyze_job(50);
  EXPECT_TRUE(service.analyze_job(50).from_cache);

  // Re-ingest the job with a different seed: new generation, new telemetry.
  const auto memleak = hpas::table2_configurations().back();
  store_.ingest(make_job(50, "LAMMPS", 3, 100, memleak, {1}, 4242));

  const JobAnalysis after = service.analyze_job(50);
  EXPECT_FALSE(after.from_cache) << "cache served a stale generation";
  EXPECT_GT(after.store_generation, before.store_generation);
  EXPECT_EQ(after.store_generation, store_.job_generation(50));
}

TEST_F(ServiceConcurrencyTest, CacheStaysBoundedAndCountsEvictions) {
  AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  service.set_cache_capacity(2);
  auto& evictions = util::MetricsRegistry::global().counter(
      "prodigy_deploy_cache_evictions_total");
  const auto evictions_before = evictions.value();

  for (const std::int64_t job : {50, 51, 52}) (void)service.analyze_job(job);
  EXPECT_LE(service.cached_analyses(), 2u);
  EXPECT_GE(evictions.value(), evictions_before + 1);

  // Least-recently-used (job 50) was evicted; 52 is still cached.
  EXPECT_TRUE(service.analyze_job(52).from_cache);
  EXPECT_FALSE(service.analyze_job(50).from_cache);
}

// The headline stress test: writers re-ingest jobs while readers run
// analyze_job, analyze_node and query_node.  Asserts no torn reads (analysis
// is always a complete, finite verdict set) and that the cache never serves
// an analysis older than the generation observed before the request.
TEST_F(ServiceConcurrencyTest, ConcurrentReadersAndWritersStayConsistent) {
  AnalyticsService service = AnalyticsService::train_from_store(
      store_, train_jobs_, fast_options(), /*explain=*/false);
  const auto memleak = hpas::table2_configurations().back();

  // Same start-gate discipline as NoTornReadsUnderConcurrentReingest: the
  // readers' do-while guarantees analyses > 0 without wall-clock assumptions.
  constexpr int kWriterRounds = 6;
  constexpr int kReaders = 3;
  std::latch readers_live(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      readers_live.wait();
      for (int round = 1; round <= kWriterRounds; ++round) {
        const auto seed = static_cast<std::uint64_t>(1000 + w * 100 + round);
        store_.ingest(make_job(50, "LAMMPS", 3, 100, memleak, {1}, seed));
        store_.ingest(make_job(51, "LAMMPS", 3, 100, hpas::healthy_spec(), {}, seed));
      }
    });
  }

  std::atomic<std::uint64_t> analyses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      readers_live.count_down();
      do {
        for (const std::int64_t job : {50LL, 51LL}) {
          const std::uint64_t gen_before = store_.job_generation(job);
          const JobAnalysis analysis = service.analyze_job(job);
          ASSERT_EQ(analysis.nodes.size(), 3u);
          for (const auto& node : analysis.nodes) {
            ASSERT_TRUE(std::isfinite(node.score));
          }
          // Never stale: the served analysis is at least as new as the
          // generation this reader observed before asking.
          ASSERT_GE(analysis.store_generation, gen_before);
          const std::int64_t component = analysis.nodes.back().component_id;
          (void)store_.query_node(job, component);
          // Scored alone from the node's own series.
          ASSERT_TRUE(std::isfinite(service.analyze_node(job, component).score));
        }
        analyses.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(analyses.load(), 0u);

  // After the dust settles, the concurrent answer (possibly a cache hit)
  // must match a serial, cache-less reference on the final telemetry.
  const JobAnalysis final_analysis = service.analyze_job(50);
  EXPECT_EQ(final_analysis.store_generation, store_.job_generation(50));

  util::ThreadPool pool1(1);
  service.set_thread_pool(&pool1);
  service.set_cache_capacity(0);
  const JobAnalysis reference = service.analyze_job(50);
  ASSERT_EQ(final_analysis.nodes.size(), reference.nodes.size());
  for (std::size_t i = 0; i < reference.nodes.size(); ++i) {
    EXPECT_EQ(final_analysis.nodes[i].component_id,
              reference.nodes[i].component_id);
    EXPECT_EQ(final_analysis.nodes[i].score, reference.nodes[i].score);
    EXPECT_EQ(final_analysis.nodes[i].anomalous, reference.nodes[i].anomalous);
  }
}

}  // namespace
}  // namespace prodigy::deploy
