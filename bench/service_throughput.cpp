// Concurrent analytics-service benchmark: the serial-vs-concurrent request
// path delta.  Builds a multi-job DSOS store, trains a budget model, then
// measures analyze_job throughput (jobs/sec) and latency percentiles at
// 1/2/4/8 client threads — cold (cache disabled) and warm (result cache on).
//
//   service_throughput [--jobs 24] [--nodes 4] [--duration 80] [--repeat 3]
//                      [--epochs 120] [--features 64] [--explain]
//
// Sharded fleet mode (--sharded): streams a synthetic multi-tenant fleet
// through the ShardedAnalyticsService while query clients fire bursty
// analyze_job traffic, then repeats a fixed-shard overload pass with the
// fleet admission budget off vs on.
//
//   service_throughput --sharded [--fleet 1024] [--ticks 96] [--tenant-nodes 16]
//                      [--shard-counts 1,2,4,8] [--query-clients 2] [--burst 8]
//                      [--bursts-per-client 16] [--window 32] [--hop 16]
//                      [--overload-shards 2] [--budget 4]
//                      [--flush-delay-us 400] [--epochs 80] [--features 64]
//
// Output is a markdown table (pasted into EXPERIMENTS.md).
#include "bench_common.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "hpas/anomalies.hpp"
#include "stream/sharded_service.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
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
  config.anomaly = anomaly;
  config.anomalous_nodes = std::move(anomalous_nodes);
  config.first_component_id = job_id * 100;
  return telemetry::generate_run(config);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct PassResult {
  double jobs_per_sec = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One benchmark pass: `clients` threads drain `repeat` rounds of `jobs`.
PassResult run_pass(const deploy::AnalyticsService& service,
                    const std::vector<std::int64_t>& jobs, std::size_t clients,
                    std::size_t repeat) {
  std::vector<std::int64_t> work;
  work.reserve(jobs.size() * repeat);
  for (std::size_t r = 0; r < repeat; ++r) {
    work.insert(work.end(), jobs.begin(), jobs.end());
  }
  std::vector<double> latencies(work.size(), 0.0);
  std::atomic<std::size_t> next{0};

  util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= work.size()) return;
        util::Timer request;
        const auto analysis = service.analyze_job(work[i]);
        (void)analysis;
        latencies[i] = request.elapsed_seconds();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed = wall.elapsed_seconds();

  std::sort(latencies.begin(), latencies.end());
  PassResult result;
  result.jobs_per_sec =
      elapsed > 0 ? static_cast<double>(work.size()) / elapsed : 0.0;
  result.p50 = percentile(latencies, 0.50);
  result.p95 = percentile(latencies, 0.95);
  result.p99 = percentile(latencies, 0.99);
  return result;
}

// ---------------------------------------------------------------------------
// Sharded fleet mode

/// Cheap deterministic per-(node, tick, metric) reading: the scorer does the
/// same preprocessing/extraction/VAE work it would on generator telemetry,
/// but a 50k-node fleet does not need 50k generated NodeSeries held live.
double synth_reading(std::uint64_t node, std::uint64_t tick, std::uint64_t metric) {
  std::uint64_t x = node * 0x9e3779b97f4a7c15ULL + tick * 0xbf58476d1ce4e5b9ULL +
                    metric * 0x94d049bb133111ebULL + 1;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  // Gauge-ish positive value in [0, 100) with mild node-dependent baseline.
  return static_cast<double>(x % 10000) / 100.0;
}

struct FleetLayout {
  std::size_t fleet_nodes = 0;
  std::size_t tenant_nodes = 0;  // nodes per tenant job
  std::size_t columns = 0;
  std::vector<std::int64_t> tenants;  // job ids

  std::int64_t job_of(std::size_t node) const {
    return static_cast<std::int64_t>(node / tenant_nodes + 1);
  }
  std::int64_t component_of(std::size_t node) const {
    return static_cast<std::int64_t>(node) + job_of(node) * 1'000'000;
  }
};

stream::SampleBatch fleet_tick(const FleetLayout& layout, std::size_t tick) {
  stream::SampleBatch batch;
  batch.sequence = tick;
  batch.rows.reserve(layout.fleet_nodes);
  for (std::size_t n = 0; n < layout.fleet_nodes; ++n) {
    stream::SampleRow row;
    row.job_id = layout.job_of(n);
    row.component_id = layout.component_of(n);
    row.timestamp = static_cast<std::int64_t>(tick);
    row.app = "LAMMPS";
    row.values.resize(layout.columns);
    for (std::size_t c = 0; c < layout.columns; ++c) {
      row.values[c] = synth_reading(n, tick, c);
    }
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

struct ShardedRun {
  std::uint64_t offered = 0, flushed = 0, shed = 0, windows = 0;
  double ingest_seconds = 0.0;
  double offer_p99 = 0.0;                 // per-offer dispatcher latency
  double score_p99 = 0.0;                 // worst per-shard window-score p99
  double query_p50 = 0.0, query_p99 = 0.0;
  std::uint64_t queries = 0, queries_failed = 0, queries_shed = 0;

  double rows_per_sec() const {
    return ingest_seconds > 0 ? static_cast<double>(offered) / ingest_seconds : 0.0;
  }
};

/// Streams `ticks` fleet frames; after a half-run warm-up, `query_clients`
/// threads fire bursts of analyze_job calls at random tenants until the
/// stream has fully drained (plus one guaranteed final burst each, so the
/// query columns are populated even when ingest outruns the clients).
/// `flush_delay` > 0 simulates a slow fleet via the fault-injection seam;
/// `queue_capacity` > 0 overrides the per-shard queue bound (overload pass).
ShardedRun run_sharded_pass(const core::ModelBundle& bundle,
                            const FleetLayout& layout, std::size_t shards,
                            std::size_t ticks, std::size_t query_clients,
                            std::size_t burst, std::size_t bursts_per_client,
                            std::size_t window, std::size_t hop,
                            std::size_t budget,
                            std::chrono::microseconds flush_delay =
                                std::chrono::microseconds(0),
                            std::size_t queue_capacity = 0) {
  stream::ShardedServiceConfig config;
  config.shards = shards;
  config.scorer.window = window;
  config.scorer.hop = hop;
  config.ingest.columns = layout.columns;
  if (queue_capacity > 0) config.ingest.queue_capacity = queue_capacity;
  config.max_total_queued_batches = budget;
  config.preprocess = stream::streaming_preprocess_defaults();
  stream::ShardFaultInjector faults(shards);
  stream::ShardedAnalyticsService service(
      bundle, config, flush_delay.count() > 0 ? &faults : nullptr);
  if (flush_delay.count() > 0) {
    for (std::size_t k = 0; k < shards; ++k) faults.set_delay(k, flush_delay);
  }

  // Isolate this pass's per-shard latency distributions (registry metrics are
  // process-global and the scaling loop reuses shard indices).
  auto& registry = util::MetricsRegistry::global();
  for (std::size_t k = 0; k < shards; ++k) {
    registry
        .histogram("prodigy_stream_shard" + std::to_string(k) +
                   "_window_score_seconds")
        .reset();
  }

  ShardedRun result;
  std::vector<double> offer_latencies;
  offer_latencies.reserve(ticks);

  std::atomic<bool> querying{false};
  std::atomic<bool> done{false};
  std::mutex query_mutex;
  std::vector<double> query_latencies;
  std::atomic<std::uint64_t> queries{0}, failed{0}, shed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < query_clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(c * 7919 + 17);
      std::vector<double> local;
      // One burst: a tenant fires `burst` back-to-back dashboard queries.
      auto fire_burst = [&] {
        const auto tenant = layout.tenants[rng() % layout.tenants.size()];
        for (std::size_t q = 0; q < burst; ++q) {
          util::Timer timer;
          try {
            const auto analysis = service.analyze_job(tenant);
            if (analysis.has_value()) {
              local.push_back(timer.elapsed_seconds());
              queries.fetch_add(1, std::memory_order_relaxed);
            } else {
              shed.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::exception&) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      };
      // Fixed burst quota per client: deterministic query volume instead of
      // spinning on the result cache for the duration of the drain.  Bursts
      // overlap the stream's second half and the drain; leftovers finish
      // against the fully populated stores.
      for (std::size_t b = 0; b < bursts_per_client; ++b) {
        while (!querying.load(std::memory_order_acquire) &&
               !done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        fire_burst();
      }
      std::lock_guard lock(query_mutex);
      query_latencies.insert(query_latencies.end(), local.begin(), local.end());
    });
  }

  // The measured window covers ingest AND drain (stop flushes every queue),
  // so rows/s is end-to-end scoring throughput, not enqueue speed.
  util::Timer wall;
  for (std::size_t t = 0; t < ticks; ++t) {
    auto batch = fleet_tick(layout, t);
    util::Timer offer_timer;
    (void)service.offer(batch);
    offer_latencies.push_back(offer_timer.elapsed_seconds());
    if (t == ticks / 2) querying.store(true, std::memory_order_release);
  }
  service.stop();
  result.ingest_seconds = wall.elapsed_seconds();
  done.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  const auto stats = service.stats();
  result.offered = stats.offered_samples;
  result.flushed = stats.totals.flushed_samples;
  result.shed = stats.shed_samples + stats.totals.dropped_samples;
  result.windows = service.windows_scored();
  result.queries = queries.load();
  result.queries_failed = failed.load();
  result.queries_shed = shed.load();

  std::sort(offer_latencies.begin(), offer_latencies.end());
  result.offer_p99 = percentile(offer_latencies, 0.99);
  for (std::size_t k = 0; k < shards; ++k) {
    const auto snapshot =
        registry
            .histogram("prodigy_stream_shard" + std::to_string(k) +
                       "_window_score_seconds")
            .snapshot();
    result.score_p99 = std::max(result.score_p99, snapshot.p99);
  }
  std::sort(query_latencies.begin(), query_latencies.end());
  result.query_p50 = percentile(query_latencies, 0.50);
  result.query_p99 = percentile(query_latencies, 0.99);
  return result;
}

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::size_t value = 0;
  bool pending = false;
  for (const char ch : csv) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<std::size_t>(ch - '0');
      pending = true;
    } else if (pending) {
      counts.push_back(value);
      value = 0;
      pending = false;
    }
  }
  if (pending) counts.push_back(value);
  return counts;
}

int run_sharded(const bench::Flags& flags) {
  const auto fleet = flags.count("fleet", static_cast<std::size_t>(1024));
  const auto ticks = flags.count("ticks", static_cast<std::size_t>(96));
  const auto tenant_nodes =
      flags.count("tenant-nodes", static_cast<std::size_t>(16));
  const auto query_clients =
      flags.count("query-clients", static_cast<std::size_t>(2));
  const auto burst = flags.count("burst", static_cast<std::size_t>(8));
  const auto bursts_per_client =
      flags.count("bursts-per-client", static_cast<std::size_t>(16));
  const auto window = flags.count("window", static_cast<std::size_t>(32));
  const auto hop = flags.count("hop", static_cast<std::size_t>(16));
  const auto shard_counts =
      parse_counts(flags.get("shard-counts", std::string("1,2,4,8")));
  const auto overload_shards =
      flags.count("overload-shards", static_cast<std::size_t>(2));
  // Must be below overload_shards * queue_capacity (4) or it can never trip.
  const auto budget = flags.count("budget", static_cast<std::size_t>(4));

  FleetLayout layout;
  layout.fleet_nodes = fleet;
  layout.tenant_nodes = tenant_nodes;
  layout.columns = telemetry::metric_count();
  for (std::size_t n = 0; n < fleet; n += tenant_nodes) {
    layout.tenants.push_back(layout.job_of(n));
  }

  // Train the shared bundle on a small generator store (same model the
  // single-shard mode benchmarks).
  deploy::DsosStore store;
  std::vector<std::int64_t> train_jobs;
  const auto memleak = hpas::table2_configurations().back();
  for (std::int64_t job = 1; job <= 8; ++job) {
    if (job % 4 == 0) {
      store.ingest(make_job(job, 4, 80.0, memleak, {0, 2}));
    } else {
      store.ingest(make_job(job, 4, 80.0));
    }
    train_jobs.push_back(job);
  }
  deploy::TrainFromStoreOptions options;
  options.preprocess.trim_seconds = 20;
  options.top_k_features = flags.count("features", static_cast<std::size_t>(64));
  options.model.vae.encoder_hidden = {24, 8};
  options.model.vae.latent_dim = 3;
  options.model.train.epochs = flags.count("epochs", static_cast<std::size_t>(80));
  options.model.train.batch_size = 16;
  options.model.train.learning_rate = 2e-3;
  options.model.train.validation_split = 0.0;
  options.model.train.early_stopping_patience = 0;
  util::Timer train_timer;
  const auto trained = deploy::AnalyticsService::train_from_store(
      store, train_jobs, options, /*explain=*/false);
  const core::ModelBundle& bundle = trained.bundle();
  std::printf("# sharded fleet: %zu nodes, %zu tenants x %zu nodes, %zu ticks, "
              "W=%zu H=%zu, trained in %.1fs\n",
              fleet, layout.tenants.size(), tenant_nodes, ticks, window, hop,
              train_timer.elapsed_seconds());

  std::printf("\n## sharded service: shard scaling (%zu-core host)\n\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::printf("| shards | rows/s | windows | lost%% | score p99 (s) | "
              "query p50 (s) | query p99 (s) | queries |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");
  for (const std::size_t shards : shard_counts) {
    const ShardedRun run =
        run_sharded_pass(bundle, layout, shards, ticks, query_clients, burst,
                         bursts_per_client, window, hop, /*budget=*/0);
    std::printf("| %zu | %.0f | %llu | %.2f | %.5f | %.4f | %.4f | %llu |\n",
                shards, run.rows_per_sec(),
                static_cast<unsigned long long>(run.windows),
                run.offered > 0 ? 100.0 * static_cast<double>(run.shed) /
                                      static_cast<double>(run.offered)
                                : 0.0,
                run.score_p99, run.query_p50, run.query_p99,
                static_cast<unsigned long long>(run.queries));
  }

  // Overload: slow-flush fault (simulated saturated fleet) against small
  // per-shard Block queues, with the fleet admission budget off vs on.  Off,
  // the wedged queues stall producers (offer p99 ~ flush time); on, the
  // dispatcher sheds whole batches up front and the offer path stays bounded.
  const auto flush_delay = std::chrono::microseconds(
      flags.count("flush-delay-us", static_cast<std::size_t>(400)));
  std::printf("\n## sharded service: overload admission (%zu shards, "
              "budget %zu batches, %lldus/flush fault)\n\n",
              overload_shards, budget,
              static_cast<long long>(flush_delay.count()));
  std::printf("| admission | offer p99 (s) | shed%% | query p99 (s) | "
              "windows |\n");
  std::printf("|---|---|---|---|---|\n");
  for (const bool admission_on : {false, true}) {
    const ShardedRun run = run_sharded_pass(
        bundle, layout, overload_shards, ticks, query_clients, burst,
        bursts_per_client, window, hop, admission_on ? budget : 0, flush_delay,
        /*queue_capacity=*/4);
    std::printf("| %s | %.5f | %.2f | %.4f | %llu |\n",
                admission_on ? "budget on" : "off (Block only)", run.offer_p99,
                run.offered > 0 ? 100.0 * static_cast<double>(run.shed) /
                                      static_cast<double>(run.offered)
                                : 0.0,
                run.query_p99, static_cast<unsigned long long>(run.windows));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  if (flags.has("sharded")) return run_sharded(flags);
  const auto job_count = flags.count("jobs", static_cast<std::size_t>(24));
  const auto nodes = flags.count("nodes", static_cast<std::size_t>(4));
  const double duration = flags.get("duration", 80.0);
  const auto repeat = flags.count("repeat", static_cast<std::size_t>(3));
  const bool explain = flags.has("explain");

  deploy::DsosStore store;
  std::vector<std::int64_t> train_jobs, query_jobs;
  const auto memleak = hpas::table2_configurations().back();
  for (std::size_t i = 0; i < job_count; ++i) {
    const auto job_id = static_cast<std::int64_t>(i + 1);
    // Every 4th job carries a memleak on half its nodes, both in training
    // (chi-square needs two classes) and in the query set.
    if (i % 4 == 3) {
      std::vector<std::size_t> bad;
      for (std::size_t n = 0; n < nodes; n += 2) bad.push_back(n);
      store.ingest(make_job(job_id, nodes, duration, memleak, bad));
    } else {
      store.ingest(make_job(job_id, nodes, duration));
    }
    if (i < job_count / 2) {
      train_jobs.push_back(job_id);
    } else {
      query_jobs.push_back(job_id);
    }
  }
  std::printf("# store: %zu jobs x %zu nodes (%.0fs series), querying %zu jobs, "
              "repeat %zu\n",
              job_count, nodes, duration, query_jobs.size(), repeat);

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
  deploy::AnalyticsService service =
      deploy::AnalyticsService::train_from_store(store, train_jobs, options, explain);
  std::printf("# trained in %.1fs (explain=%d)\n", train_timer.elapsed_seconds(),
              explain ? 1 : 0);

  // Serial baseline: one client, per-node fan-out pinned to a 1-thread pool,
  // no result cache — the PR-1 request path.
  util::ThreadPool serial_pool(1);
  service.set_thread_pool(&serial_pool);
  service.set_cache_capacity(0);
  const PassResult serial = run_pass(service, query_jobs, 1, repeat);
  std::printf("\n## service_throughput (%zu-core host)\n\n",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::printf("| mode | clients | jobs/s | p50 (s) | p95 (s) | p99 (s) | vs serial |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  std::printf("| serial (PR-1 path) | 1 | %.1f | %.4f | %.4f | %.4f | 1.0x |\n",
              serial.jobs_per_sec, serial.p50, serial.p95, serial.p99);

  // Concurrent path, cache still off: pooled per-node fan-out + shared-read
  // DSOS under 1/2/4/8 client threads.
  service.set_thread_pool(nullptr);
  for (const std::size_t clients : {1, 2, 4, 8}) {
    const PassResult cold = run_pass(service, query_jobs, clients, repeat);
    std::printf("| concurrent, cold | %zu | %.1f | %.4f | %.4f | %.4f | %.1fx |\n",
                clients, cold.jobs_per_sec, cold.p50, cold.p95, cold.p99,
                serial.jobs_per_sec > 0 ? cold.jobs_per_sec / serial.jobs_per_sec
                                        : 0.0);
  }

  // Warm cache: first pass fills, measured passes hit.
  service.set_cache_capacity(job_count);
  run_pass(service, query_jobs, 1, 1);  // warm-up fill
  for (const std::size_t clients : {1, 4}) {
    const PassResult warm = run_pass(service, query_jobs, clients, repeat);
    std::printf("| concurrent, cached | %zu | %.1f | %.6f | %.6f | %.6f | %.1fx |\n",
                clients, warm.jobs_per_sec, warm.p50, warm.p95, warm.p99,
                serial.jobs_per_sec > 0 ? warm.jobs_per_sec / serial.jobs_per_sec
                                        : 0.0);
  }

  // Cache-hit speedup headline: cold single analyze vs cached single analyze.
  service.set_cache_capacity(0);
  service.set_cache_capacity(job_count);
  util::Timer cold_timer;
  (void)service.analyze_job(query_jobs.front());
  const double cold_s = cold_timer.elapsed_seconds();
  util::Timer hit_timer;
  (void)service.analyze_job(query_jobs.front());
  const double hit_s = hit_timer.elapsed_seconds();
  std::printf("\ncache-hit path: cold %.4fs vs hit %.6fs (%.0fx faster)\n", cold_s,
              hit_s, hit_s > 0 ? cold_s / hit_s : 0.0);
  return 0;
}
