// Sharded fleet-scale service harness (stream/sharded_service.hpp):
//
//  * golden determinism — sharded streaming verdicts and merged analyze_job
//    results are bit-identical (EXPECT_EQ) to the single-shard oracle for
//    shard counts {1, 2, 4, 8} and any per-shard pool size;
//  * fault injection — a stalled, crashed, or slow shard never breaks the
//    fleet-wide accounting invariant
//      offered == shed + flushed + dropped + duplicate + late + malformed
//    and a released (stalled) shard catches up losslessly;
//  * admission control — the fleet queued-batch budget sheds deterministic
//    batches, and the query gate's admitted/shed ledger always balances.
//
// All fault sequencing is condition-variable driven (wait_until_stalled);
// there are no wall-clock sleeps to flake under TSAN.
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "stream/event_bus.hpp"
#include "stream/sharded_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
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

/// One frame per tick with rows for every node (the replay-tool shape).
std::vector<stream::SampleBatch> batches_from_job(
    const telemetry::JobTelemetry& job) {
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

class ServiceShardTest : public ::testing::Test {
 protected:
  ServiceShardTest() {
    std::int64_t job = 1;
    for (int i = 0; i < 5; ++i) {
      store_.ingest(make_job(job, "LAMMPS", 3, 120));
      train_jobs_.push_back(job++);
    }
    const auto memleak = hpas::table2_configurations().back();
    store_.ingest(make_job(job, "LAMMPS", 3, 120, memleak));
    train_jobs_.push_back(job++);
  }

  core::ModelBundle train_bundle() {
    deploy::TrainFromStoreOptions options;
    options.preprocess.trim_seconds = 20;
    options.top_k_features = 64;
    options.model.vae.encoder_hidden = {24, 8};
    options.model.vae.latent_dim = 3;
    options.model.train.epochs = 80;
    options.model.train.batch_size = 16;
    options.model.train.learning_rate = 2e-3;
    options.model.train.validation_split = 0.0;
    options.model.train.early_stopping_patience = 0;
    const auto service = deploy::AnalyticsService::train_from_store(
        store_, train_jobs_, options, /*explain=*/false);
    return service.bundle();
  }

  deploy::DsosStore store_;
  std::vector<std::int64_t> train_jobs_;
};

using VerdictKey = std::pair<std::int64_t, std::uint64_t>;  // (component, window)

struct VerdictRecord {
  double score = 0.0;
  double threshold = 0.0;
  bool anomalous = false;
  std::int64_t start_ts = 0;
  std::int64_t end_ts = 0;
};

TEST_F(ServiceShardTest, GoldenDeterminismAcrossShardCountsAndPoolSizes) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(90, "LAMMPS", 16, 120,
                                   hpas::table2_configurations().back(), {3, 11});
  const auto batches = batches_from_job(replay_job);
  constexpr std::size_t kWindowsPerNode = 4;  // 120 rows, W=48, H=24

  auto run_replay = [&](std::size_t shards, std::size_t threads) {
    stream::ShardedServiceConfig config;
    config.shards = shards;
    config.scorer_threads = threads;
    config.scorer.window = 48;
    config.scorer.hop = 24;
    config.preprocess = stream::streaming_preprocess_defaults();
    stream::ShardedAnalyticsService service(bundle, config);

    std::mutex verdict_mutex;
    std::map<VerdictKey, VerdictRecord> verdicts;
    service.bus().subscribe([&](const stream::VerdictEvent& event) {
      std::lock_guard lock(verdict_mutex);
      verdicts[{event.component_id, event.window_index}] = {
          event.score, event.threshold, event.anomalous, event.window_start_ts,
          event.window_end_ts};
    });

    for (const auto& batch : batches) EXPECT_TRUE(service.offer(batch));
    service.stop();

    // Unsaturated Block queues: every offered sample flushed, none shed.
    const auto stats = service.stats();
    EXPECT_TRUE(stats.accounting_balances());
    EXPECT_EQ(stats.shed_samples, 0u);
    EXPECT_EQ(stats.totals.dropped_samples, 0u);
    EXPECT_EQ(stats.offered_samples, stats.totals.flushed_samples);
    EXPECT_EQ(service.score_errors(), 0u);
    EXPECT_EQ(service.windows_scored(),
              replay_job.nodes.size() * kWindowsPerNode);

    // Placement: every node's full history lives in exactly the shard the
    // frozen hash names, and the per-shard scored-window counts sum to the
    // fleet total.
    std::uint64_t per_shard_windows = 0;
    for (std::size_t k = 0; k < service.shard_count(); ++k) {
      per_shard_windows += service.shard_windows_scored(k);
    }
    EXPECT_EQ(per_shard_windows, service.windows_scored());
    for (const auto& node : replay_job.nodes) {
      const std::size_t owner =
          service.shard_of_node(node.job_id, node.component_id);
      const auto stored =
          service.shard_store(owner).query_node(node.job_id, node.component_id);
      EXPECT_EQ(stored.values.rows(), node.values.rows());
    }

    // Merged query, computed from the shard-local stores.
    const auto analysis = service.analyze_job(replay_job.job_id);
    EXPECT_TRUE(analysis.has_value());
    std::lock_guard lock(verdict_mutex);
    return std::make_pair(verdicts, *analysis);
  };

  const auto [golden_verdicts, golden_analysis] = run_replay(1, 1);
  ASSERT_EQ(golden_verdicts.size(), replay_job.nodes.size() * kWindowsPerNode);
  ASSERT_EQ(golden_analysis.nodes.size(), replay_job.nodes.size());

  // The unsharded batch oracle: one store holding the whole job, analyzed by
  // the plain AnalyticsService with identical preprocessing.
  deploy::DsosStore oracle_store;
  oracle_store.ingest(replay_job);
  const deploy::AnalyticsService oracle(oracle_store, bundle,
                                        stream::streaming_preprocess_defaults(),
                                        /*explain=*/false);
  const deploy::JobAnalysis oracle_analysis =
      oracle.analyze_job(replay_job.job_id);
  ASSERT_EQ(oracle_analysis.nodes.size(), golden_analysis.nodes.size());
  for (std::size_t i = 0; i < oracle_analysis.nodes.size(); ++i) {
    EXPECT_EQ(golden_analysis.nodes[i].component_id,
              oracle_analysis.nodes[i].component_id);
    EXPECT_EQ(golden_analysis.nodes[i].score, oracle_analysis.nodes[i].score);
    EXPECT_EQ(golden_analysis.nodes[i].threshold,
              oracle_analysis.nodes[i].threshold);
    EXPECT_EQ(golden_analysis.nodes[i].anomalous,
              oracle_analysis.nodes[i].anomalous);
  }

  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << shards << " shards, " << threads << " scorer threads");
      const auto [verdicts, analysis] = run_replay(shards, threads);
      ASSERT_EQ(verdicts.size(), golden_verdicts.size());
      for (const auto& [key, golden] : golden_verdicts) {
        const auto it = verdicts.find(key);
        ASSERT_NE(it, verdicts.end())
            << "node " << key.first << " window " << key.second;
        // EXPECT_EQ, not EXPECT_NEAR: sharding must not perturb one bit.
        EXPECT_EQ(it->second.score, golden.score);
        EXPECT_EQ(it->second.threshold, golden.threshold);
        EXPECT_EQ(it->second.anomalous, golden.anomalous);
        EXPECT_EQ(it->second.start_ts, golden.start_ts);
        EXPECT_EQ(it->second.end_ts, golden.end_ts);
      }
      ASSERT_EQ(analysis.nodes.size(), golden_analysis.nodes.size());
      for (std::size_t i = 0; i < analysis.nodes.size(); ++i) {
        EXPECT_EQ(analysis.nodes[i].component_id,
                  golden_analysis.nodes[i].component_id);
        EXPECT_EQ(analysis.nodes[i].score, golden_analysis.nodes[i].score);
        EXPECT_EQ(analysis.nodes[i].threshold,
                  golden_analysis.nodes[i].threshold);
        EXPECT_EQ(analysis.nodes[i].anomalous,
                  golden_analysis.nodes[i].anomalous);
      }
    }
  }
}

TEST_F(ServiceShardTest, StalledShardCatchesUpLosslessly) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(91, "LAMMPS", 6, 100);
  const auto batches = batches_from_job(replay_job);
  constexpr std::size_t kWindowsPerNode = 3;  // 100 rows, W=32, H=32

  stream::ShardFaultInjector faults(2);
  stream::ShardedServiceConfig config;
  config.shards = 2;
  config.scorer.window = 32;
  config.scorer.hop = 32;
  stream::ShardedAnalyticsService service(bundle, config, &faults);

  // Pick the shard owning the first node as the victim; with 6 nodes both
  // shards are expected to own some (asserted below).
  const std::size_t victim = service.shard_of_node(
      replay_job.nodes[0].job_id, replay_job.nodes[0].component_id);
  std::set<std::size_t> owners;
  for (const auto& node : replay_job.nodes) {
    owners.insert(service.shard_of_node(node.job_id, node.component_id));
  }
  ASSERT_EQ(owners.size(), 2u) << "replay job must span both shards";

  faults.stall(victim);
  EXPECT_TRUE(service.offer(batches[0]));
  faults.wait_until_stalled(victim);
  EXPECT_TRUE(faults.stalled(victim));
  EXPECT_EQ(service.shard_windows_scored(victim), 0u);

  for (std::size_t t = 1; t < batches.size(); ++t) {
    EXPECT_TRUE(service.offer(batches[t]));
  }
  // The frozen consumer popped batch 0 and parked; everything since is
  // queued behind it.
  EXPECT_EQ(service.shard_queue_depth(victim), batches.size() - 1);

  // Bounded staleness: release -> the shard drains its backlog completely.
  faults.release(victim);
  service.stop();

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_balances());
  EXPECT_EQ(stats.shed_samples, 0u);
  EXPECT_EQ(stats.totals.dropped_samples, 0u);
  EXPECT_EQ(stats.offered_samples, stats.totals.flushed_samples);
  EXPECT_EQ(service.windows_scored(),
            replay_job.nodes.size() * kWindowsPerNode);
  EXPECT_EQ(service.score_errors(), 0u);

  // Recovery is complete enough to serve the merged query for every node.
  const auto analysis = service.analyze_job(replay_job.job_id);
  ASSERT_TRUE(analysis.has_value());
  EXPECT_EQ(analysis->nodes.size(), replay_job.nodes.size());
}

TEST_F(ServiceShardTest, CrashedShardKeepsFleetAccountingBalanced) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(91, "LAMMPS", 6, 100);
  const auto batches = batches_from_job(replay_job);
  constexpr std::size_t kWindowsPerNode = 3;

  stream::ShardFaultInjector faults(2);
  stream::ShardedServiceConfig config;
  config.shards = 2;
  config.scorer.window = 32;
  config.scorer.hop = 32;
  stream::ShardedAnalyticsService service(bundle, config, &faults);

  const std::size_t victim = service.shard_of_node(
      replay_job.nodes[0].job_id, replay_job.nodes[0].component_id);
  const std::size_t survivor = 1 - victim;
  std::size_t survivor_nodes = 0;
  for (const auto& node : replay_job.nodes) {
    if (service.shard_of_node(node.job_id, node.component_id) == survivor) {
      ++survivor_nodes;
    }
  }
  ASSERT_GT(survivor_nodes, 0u);
  ASSERT_LT(survivor_nodes, replay_job.nodes.size());

  // Freeze the victim with a backlog, then kill it: the queued batches and
  // reordered-but-unflushed rows must land in `dropped`, not vanish.  Park
  // the consumer on batch 0's flush FIRST — offered any later, batches pile
  // up behind the frozen consumer instead of being drained into its pending
  // buffer, so the backlog is deterministic.
  faults.stall(victim);
  EXPECT_TRUE(service.offer(batches[0]));
  faults.wait_until_stalled(victim);
  for (std::size_t t = 1; t < 30; ++t) EXPECT_TRUE(service.offer(batches[t]));
  ASSERT_EQ(service.shard_queue_depth(victim), 29u);
  service.crash_shard(victim);
  EXPECT_FALSE(service.shard_alive(victim));
  EXPECT_TRUE(service.shard_alive(survivor));

  // Post-crash traffic: rows routed to the dead shard are shed by the
  // dispatcher (offer reports the loss), the survivor's rows still flow.
  for (std::size_t t = 30; t < batches.size(); ++t) {
    EXPECT_FALSE(service.offer(batches[t]));
  }
  service.stop();

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_balances())
      << "offered=" << stats.offered_samples << " shed=" << stats.shed_samples
      << " flushed=" << stats.totals.flushed_samples
      << " dropped=" << stats.totals.dropped_samples;
  EXPECT_GT(stats.shed_samples, 0u);             // dead-shard traffic
  EXPECT_GT(stats.totals.dropped_samples, 0u);   // the crashed backlog
  // The survivor personally lost nothing.
  EXPECT_EQ(stats.per_shard[survivor].dropped_samples, 0u);
  EXPECT_EQ(stats.per_shard[survivor].offered_samples,
            stats.per_shard[survivor].flushed_samples);

  // Every survivor-owned node scored its full window schedule; the victim
  // scored nothing (it was frozen from the first flush until the crash).
  EXPECT_EQ(service.shard_windows_scored(survivor),
            survivor_nodes * kWindowsPerNode);
  EXPECT_EQ(service.shard_windows_scored(victim), 0u);
  EXPECT_EQ(service.score_errors(), 0u);
}

TEST_F(ServiceShardTest, SlowShardDelaysButLosesNothing) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(92, "LAMMPS", 4, 80);
  const auto batches = batches_from_job(replay_job);
  constexpr std::size_t kWindowsPerNode = 2;  // 80 rows, W=32, H=32

  stream::ShardFaultInjector faults(2);
  stream::ShardedServiceConfig config;
  config.shards = 2;
  config.scorer.window = 32;
  config.scorer.hop = 32;
  stream::ShardedAnalyticsService service(bundle, config, &faults);

  faults.set_delay(0, std::chrono::microseconds(500));
  faults.set_delay(1, std::chrono::microseconds(200));
  for (const auto& batch : batches) EXPECT_TRUE(service.offer(batch));
  service.stop();

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_balances());
  EXPECT_EQ(stats.shed_samples, 0u);
  EXPECT_EQ(stats.totals.dropped_samples, 0u);
  EXPECT_EQ(stats.offered_samples, stats.totals.flushed_samples);
  EXPECT_EQ(service.windows_scored(),
            replay_job.nodes.size() * kWindowsPerNode);
}

TEST_F(ServiceShardTest, FleetAdmissionBudgetShedsDeterministically) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(93, "LAMMPS", 2, 50);
  const auto batches = batches_from_job(replay_job);
  const std::uint64_t rows_per_batch = batches[0].sample_count();

  stream::ShardFaultInjector faults(1);
  stream::ShardedServiceConfig config;
  config.shards = 1;
  config.scorer.window = 16;
  config.scorer.hop = 16;
  config.max_total_queued_batches = 2;
  stream::ShardedAnalyticsService service(bundle, config, &faults);

  // Freeze the only consumer: it pops batch 0 and parks, so the next two
  // offers occupy the whole fleet budget and the two after that are shed at
  // the dispatcher, before any per-shard policy runs.
  faults.stall(0);
  EXPECT_TRUE(service.offer(batches[0]));
  faults.wait_until_stalled(0);
  EXPECT_TRUE(service.offer(batches[1]));
  EXPECT_TRUE(service.offer(batches[2]));
  EXPECT_EQ(service.shard_queue_depth(0), 2u);
  EXPECT_FALSE(service.offer(batches[3]));
  EXPECT_FALSE(service.offer(batches[4]));
  EXPECT_EQ(service.stats().shed_samples, 2 * rows_per_batch);

  faults.release(0);
  service.stop();

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_balances());
  EXPECT_EQ(stats.offered_samples, 5 * rows_per_batch);
  EXPECT_EQ(stats.shed_samples, 2 * rows_per_batch);
  EXPECT_EQ(stats.totals.flushed_samples, 3 * rows_per_batch);
  EXPECT_EQ(stats.totals.dropped_samples, 0u);
}

TEST_F(ServiceShardTest, ReplayedTrafficLandsInDuplicateOrLateBuckets) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(94, "LAMMPS", 3, 60);
  const auto batches = batches_from_job(replay_job);
  std::uint64_t replay_samples = 0;
  for (const auto& batch : batches) replay_samples += batch.sample_count();

  stream::ShardedServiceConfig config;
  config.shards = 2;
  config.scorer.window = 32;
  config.scorer.hop = 32;
  stream::ShardedAnalyticsService service(bundle, config);

  // Offer the whole run twice: every second-pass sample must land in a
  // terminal bucket (duplicate while still pending, late once flushed) and
  // the ledger must still balance — an at-least-once upstream retry storm
  // must not corrupt fleet accounting.
  for (const auto& batch : batches) EXPECT_TRUE(service.offer(batch));
  for (const auto& batch : batches) EXPECT_TRUE(service.offer(batch));
  service.stop();

  const auto stats = service.stats();
  EXPECT_TRUE(stats.accounting_balances());
  EXPECT_EQ(stats.offered_samples, 2 * replay_samples);
  EXPECT_EQ(stats.totals.flushed_samples, replay_samples);
  EXPECT_EQ(stats.totals.duplicate_samples + stats.totals.late_samples,
            replay_samples);
  EXPECT_EQ(stats.totals.dropped_samples, 0u);
}

TEST_F(ServiceShardTest, QueryGateLedgerBalancesUnderConcurrency) {
  const core::ModelBundle bundle = train_bundle();
  const auto replay_job = make_job(95, "LAMMPS", 4, 60);
  const auto batches = batches_from_job(replay_job);

  auto load_store = [&](stream::ShardedAnalyticsService& service) {
    for (const auto& batch : batches) EXPECT_TRUE(service.offer(batch));
    service.stop();  // queries run against the populated shard stores
  };

  {  // Block admission: callers park, every query completes.
    stream::ShardedServiceConfig config;
    config.shards = 2;
    config.max_concurrent_queries = 1;
    config.query_admission = stream::BackpressurePolicy::Block;
    stream::ShardedAnalyticsService service(bundle, config);
    load_store(service);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 4; ++i) {
          const auto analysis = service.analyze_job(replay_job.job_id);
          ASSERT_TRUE(analysis.has_value());
          EXPECT_EQ(analysis->nodes.size(), replay_job.nodes.size());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const auto stats = service.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_EQ(stats.queries_shed, 0u);
  }

  {  // Shedding admission: overlapping callers may be rejected, but the
     // admitted + shed ledger always equals the calls made and every nullopt
     // corresponds to exactly one shed.
    stream::ShardedServiceConfig config;
    config.shards = 2;
    config.max_concurrent_queries = 1;
    config.query_admission = stream::BackpressurePolicy::DropNewest;
    stream::ShardedAnalyticsService service(bundle, config);
    load_store(service);

    std::atomic<std::uint64_t> rejected{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          const auto analysis = service.analyze_job(replay_job.job_id);
          if (!analysis.has_value()) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_EQ(analysis->nodes.size(), replay_job.nodes.size());
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const auto stats = service.stats();
    EXPECT_EQ(stats.queries + stats.queries_shed, 32u);
    EXPECT_EQ(stats.queries_shed, rejected.load());
  }
}

}  // namespace
