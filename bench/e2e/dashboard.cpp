// dashboard_ingest: an ingest-only stream appending a 256-node live job to
// the DSOS store at 20 ticks/s (open loop) while two closed-loop clients
// query the same store: three queries in four are analyze_job on a historic
// job with CoMTE explanations, the fourth analyze_node on a live node.
// Delivery latency runs from a tick's due time to its rows reaching the
// ingestor's RowSink, which happens after they landed in the store.
#include "harness.hpp"

#include "eval/metrics.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

namespace prodigy::bench::e2e {
namespace {

using stream::SampleBatch;

constexpr std::size_t kOracleQueries = 50;

struct DashboardShape {
  std::int64_t live_job = 900;
  std::size_t live_nodes = 256;
  std::size_t history_ticks = 900;   // preloaded rows of the live job
  /// Live ticks per second.  Each tick copies every live node's whole series
  /// into the store, so 20 ticks/s onto ~1,000 rows copies the bytes per
  /// second of 10 ticks/s onto 1,800.  Which ticks collide with a query sets
  /// the ingest latency's run-to-run spread, and more ticks per run narrow it.
  double rate = 20.0;
  std::size_t measure_ticks = 0;     // paced, with queries alongside
  std::size_t capacity_ticks = 150;  // per unpaced replay
  std::size_t historic_jobs = 96;
  std::size_t historic_nodes = 2;
  double historic_s = 900.0;
  std::size_t cache_capacity = 16;
  std::size_t ledger_nodes = 2;

  /// Ticks after the history: the measured phase, then either the traced
  /// phase (traced runs) or the capacity ticks every replay re-ingests.
  std::size_t streamed_ticks() const {
    return measure_ticks + std::max(measure_ticks, capacity_ticks);
  }
  std::size_t end_tick() const { return history_ticks + streamed_ticks(); }
};

struct DashboardSetup {
  // The services read the store by reference: declared after it, so they
  // are destroyed first.
  std::unique_ptr<deploy::DsosStore> store;
  /// Job view: analyze_job with CoMTE explanations on anomalous nodes.
  std::optional<deploy::AnalyticsService> job_view;
  /// Node view: analyze_node verdicts of the live job, scores only.
  std::optional<deploy::AnalyticsService> node_view;
  std::vector<std::int64_t> historic;
  std::map<std::int64_t, std::vector<int>> labels;  // historic job -> node labels
  std::vector<SampleBatch> batches;  // live ticks [history_ticks, end_tick)
};

SetupTimes setup_dashboard(const Options& options, const DashboardShape& shape,
                           DashboardSetup& out) {
  util::Timer total;
  SetupTimes times;
  out.node_view.reset();
  out.job_view.reset();
  out.store = std::make_unique<deploy::DsosStore>();
  out.job_view.emplace(train_default_service(*out.store, options.seed,
                                             /*explain=*/true, shape.cache_capacity,
                                             times));
  out.node_view.emplace(*out.store, out.job_view->bundle(),
                        deploy::TrainFromStoreOptions{}.preprocess,
                        /*explain=*/false, comte::ComteConfig{}, shape.cache_capacity);
  out.historic.clear();
  out.labels.clear();
  std::vector<telemetry::JobTelemetry> historic;
  util::Timer generate;
  for (std::size_t i = 0; i < shape.historic_jobs; ++i) {
    const auto job_id = static_cast<std::int64_t>(101 + i);
    // One historic job in four carries a Table-2 anomaly on one node.
    const std::size_t anomalous = i % 4 == 3 ? 1 : 0;
    historic.push_back(make_job(job_id, shape.historic_nodes, shape.historic_s,
                                options.seed, shape.historic_nodes, anomalous));
  }
  const telemetry::JobTelemetry live =
      make_job(shape.live_job, shape.live_nodes, static_cast<double>(shape.end_tick()),
               options.seed, 32, 8);
  times.generate_s += generate.elapsed_seconds();

  util::Timer preload;
  for (const auto& job : historic) {
    out.store->ingest(job);
    out.historic.push_back(job.job_id);
    for (const auto& node : job.nodes) out.labels[job.job_id].push_back(node.label);
  }
  telemetry::JobTelemetry prefix;
  prefix.job_id = live.job_id;
  prefix.app = live.app;
  for (const auto& node : live.nodes) {
    telemetry::NodeSeries head = node;
    head.values = node.values.slice_rows(0, shape.history_ticks);
    prefix.nodes.push_back(std::move(head));
  }
  out.store->ingest(prefix);
  out.batches = encode_batches(live, shape.history_ticks, shape.end_tick());
  times.preload_s = preload.elapsed_seconds();
  times.total_s = total.elapsed_seconds();
  return times;
}

struct QueryRecord {
  std::uint64_t ticket = 0;
  std::size_t nth = 0;  // position in its client's own, seeded, sequence
  bool live = false;
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  double ms = 0.0;
  bool threw = false;
  bool cached = false;
  std::uint64_t rows_before = 0, rows_after = 0;  // live node rows around the call
  std::shared_ptr<const deploy::JobAnalysis> analysis;  // historic queries
  std::optional<deploy::NodeVerdict> verdict;           // live-node queries
};

struct DashboardPhase {
  OpenLoopResult loop;
  std::vector<QueryRecord> queries;  // in ticket order
  std::vector<double> ingest_ms;
  std::vector<std::size_t> ingest_tick;  // paced tick offset of each row
  stream::IngestorStats stats;
  double elapsed_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double pool_high_water = 0.0;

  std::vector<double> query_ms() const {
    std::vector<double> ms;
    for (const QueryRecord& q : queries) {
      if (!q.threw) ms.push_back(q.ms);
    }
    return ms;
  }
};

/// Streams live ticks [begin, begin + measure) at the paced rate through an
/// ingest-only StreamIngestor whose sink is `timing`, while two closed-loop
/// clients, seeded from `client_seed`, query the same store.
DashboardPhase run_dashboard_phase(const DashboardShape& shape, DashboardSetup& setup,
                                   TimingSink& timing, std::size_t begin,
                                   std::uint64_t client_seed, Tracer* tracer) {
  const PhaseLog phase_log("dashboard_phase");
  auto& registry = util::MetricsRegistry::global();
  auto& hits = registry.counter("prodigy_deploy_cache_hits_total");
  auto& misses = registry.counter("prodigy_deploy_cache_misses_total");
  auto& pool_high_water = registry.gauge("prodigy_threadpool_queue_depth_high_water");
  const std::uint64_t hits0 = hits.value(), misses0 = misses.value();
  pool_high_water.set(0.0);

  DashboardPhase phase;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_ticket{0};
  std::vector<std::vector<QueryRecord>> per_client(2);
  util::Timer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(mix_seed(client_seed, c));
      auto& records = per_client[c];
      while (!stop.load(std::memory_order_acquire)) {
        QueryRecord q;
        q.ticket = next_ticket.fetch_add(1);
        q.nth = records.size();
        // Three queries in four are a dashboard job view of a historic job;
        // the fourth is a node view of the live job.  A fixed cycle (offset
        // per client) keeps the mix the same in every run.
        q.live = (q.nth + 2 * c) % 4 == 3;
        const std::int64_t start = now_ns();
        try {
          if (q.live) {
            const std::size_t node = rng.uniform_index(shape.live_nodes);
            q.job_id = shape.live_job;
            q.component_id =
                shape.live_job * kComponentsPerJob + static_cast<std::int64_t>(node);
            q.rows_before = timing.rows(node);
            ScopedSpan span(tracer, "deploy.analyze_node", q.ticket);
            q.verdict = setup.node_view->analyze_node(q.job_id, q.component_id);
            q.rows_after = timing.rows(node);
          } else {
            q.job_id = setup.historic[rng.uniform_index(setup.historic.size())];
            ScopedSpan span(tracer, "deploy.analyze_job", q.ticket);
            auto analysis = std::make_shared<const deploy::JobAnalysis>(
                setup.job_view->analyze_job(q.job_id));
            q.cached = analysis->from_cache;
            q.analysis = std::move(analysis);
          }
        } catch (const std::exception&) {
          q.threw = true;
        }
        q.ms = static_cast<double>(now_ns() - start) / 1e6;
        records.push_back(std::move(q));
      }
    });
  }

  stream::StreamIngestor ingestor(*setup.store, stream::IngestorConfig{}, &timing);
  const std::size_t first = shape.history_ticks + begin;
  std::function<std::size_t()> depth;
  if (tracer != nullptr) depth = [&] { return ingestor.queue_depth(); };
  phase.loop = run_open_loop(
      setup.batches, shape.history_ticks, first, first, first + shape.measure_ticks,
      shape.rate, [&](const SampleBatch& batch) { ingestor.offer(batch); }, depth,
      [&](const Schedule& schedule) { timing.set_schedule(schedule); }, tracer);
  stop.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  phase.elapsed_s = wall.elapsed_seconds();
  ingestor.stop();
  phase.stats = ingestor.stats();

  for (auto& records : per_client) {
    for (auto& q : records) phase.queries.push_back(std::move(q));
  }
  std::sort(phase.queries.begin(), phase.queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.ticket < b.ticket;
            });
  phase.ingest_ms = timing.wait_ms();
  phase.ingest_tick = timing.wait_ticks();
  phase.cache_hits = hits.value() - hits0;
  phase.cache_misses = misses.value() - misses0;
  phase.pool_high_water = pool_high_water.value();
  return phase;
}

/// Every offered sample flushed and the ingest accounting balanced; counts
/// the phase's operations (samples offered, queries issued).
void check_phase(Report& report, const DashboardPhase& phase, const std::string& name) {
  const stream::IngestorStats& s = phase.stats;
  std::uint64_t threw = 0;
  for (const QueryRecord& q : phase.queries) threw += q.threw ? 1 : 0;
  report.attempted(s.offered_samples + phase.queries.size());
  report.failed(s.offered_samples - std::min(s.offered_samples, s.flushed_samples) +
                threw);
  const bool balanced = s.offered_samples == s.flushed_samples + s.dropped_samples +
                                                 s.duplicate_samples + s.late_samples +
                                                 s.malformed_samples;
  report.check(name + ".accounting", balanced && s.flushed_samples == s.offered_samples,
               std::to_string(s.offered_samples) + " offered, " +
                   std::to_string(s.flushed_samples) + " flushed");
}

bool same_analysis(const deploy::JobAnalysis& a, const deploy::JobAnalysis& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const deploy::NodeVerdict& x = a.nodes[i];
    const deploy::NodeVerdict& y = b.nodes[i];
    if (x.component_id != y.component_id || x.anomalous != y.anomalous ||
        x.score != y.score ||
        x.explanation.has_value() != y.explanation.has_value()) {
      return false;
    }
    if (!x.explanation) continue;
    if (x.explanation->success != y.explanation->success ||
        x.explanation->changes.size() != y.explanation->changes.size()) {
      return false;
    }
    for (std::size_t c = 0; c < x.explanation->changes.size(); ++c) {
      if (x.explanation->changes[c].metric != y.explanation->changes[c].metric) {
        return false;
      }
    }
  }
  return true;
}

/// The first queries of the phase against a 1-thread, cache-off oracle.
/// Historic jobs do not change, so the oracle re-asks the same service; a
/// live-node answer must equal the oracle on one of the row counts the node
/// could have had while the query ran.
void check_queries(Report& report, const DashboardShape& shape,
                   DashboardSetup& setup, const DashboardPhase& phase) {
  const PhaseLog phase_log("query_oracle");
  std::vector<const QueryRecord*> historic, live;
  std::size_t threw = 0;
  for (const QueryRecord& q : phase.queries) {
    if (q.ticket >= kOracleQueries) break;
    if (q.threw) {
      ++threw;
    } else {
      (q.live ? live : historic).push_back(&q);
    }
  }

  // With a 1-thread pool every parallel_for of a request runs inline on the
  // calling thread, so oracle requests can themselves run side by side.
  util::ThreadPool one(1);
  deploy::AnalyticsService& service = *setup.job_view;
  service.set_thread_pool(&one);
  service.set_cache_capacity(0);
  std::atomic<std::size_t> next{0}, mismatched{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < std::min(4u, std::thread::hardware_concurrency()); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < historic.size();
           i = next.fetch_add(1)) {
        try {
          const deploy::JobAnalysis oracle = service.analyze_job(historic[i]->job_id);
          if (!same_analysis(*historic[i]->analysis, oracle)) mismatched.fetch_add(1);
        } catch (const std::exception&) {
          mismatched.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  service.set_thread_pool(nullptr);
  service.set_cache_capacity(shape.cache_capacity);

  deploy::DsosStore oracle_store;
  deploy::AnalyticsService live_oracle(oracle_store, service.bundle(),
                                       deploy::TrainFromStoreOptions{}.preprocess,
                                       /*explain=*/false, comte::ComteConfig{}, 0);
  live_oracle.set_thread_pool(&one);
  for (const QueryRecord* q : live) {
    const telemetry::NodeSeries series =
        setup.store->query_node(q->job_id, q->component_id);
    // Rows land in the store before the sink sees them, so the snapshot the
    // query read may hold a few rows more than the sink had counted.
    const std::uint64_t most =
        std::min<std::uint64_t>(q->rows_after + 8, series.values.rows());
    bool matched = false;
    for (std::uint64_t rows = q->rows_before; !matched && rows <= most; ++rows) {
      telemetry::JobTelemetry job;
      job.job_id = q->job_id;
      job.app = series.app;
      telemetry::NodeSeries truncated = series;
      truncated.values = series.values.slice_rows(0, rows);
      job.nodes.push_back(std::move(truncated));
      oracle_store.ingest(job);
      const deploy::NodeVerdict oracle =
          live_oracle.analyze_node(q->job_id, q->component_id);
      matched = oracle.score == q->verdict->score &&
                oracle.anomalous == q->verdict->anomalous;
    }
    if (!matched) mismatched.fetch_add(1);
  }
  const std::size_t compared = historic.size() + live.size();
  report.check("queries_vs_oracle",
               compared > 0 && mismatched.load() == 0 && threw == 0,
               std::to_string(compared) + " of the first " +
                   std::to_string(kOracleQueries) +
                   " queries compared with a 1-thread cache-off oracle: " +
                   std::to_string(mismatched.load()) + " mismatches, " +
                   std::to_string(threw) + " threw");
}

/// Verdict quality over the distinct historic jobs among each client's first
/// kF1Queries queries.  Those follow from the seed alone, whereas how many
/// queries a client completes depends on the host's speed.
double historic_macro_f1(const DashboardSetup& setup, const DashboardPhase& phase,
                         std::size_t& samples) {
  constexpr std::size_t kF1Queries = 12;
  std::map<std::int64_t, const deploy::JobAnalysis*> seen;
  for (const QueryRecord& q : phase.queries) {
    if (q.analysis && q.nth < kF1Queries) seen.emplace(q.job_id, q.analysis.get());
  }
  std::vector<int> truth, verdicts;
  for (const auto& [job, analysis] : seen) {
    for (std::size_t i = 0; i < analysis->nodes.size(); ++i) {
      truth.push_back(setup.labels.at(job).at(i));
      verdicts.push_back(analysis->nodes[i].anomalous ? 1 : 0);
    }
  }
  samples = truth.size();
  return eval::macro_f1(truth, verdicts);
}

}  // namespace

void run_dashboard_ingest(const Options& options, Report& report, Tracer* tracer) {
  DashboardShape shape;
  if (options.smoke) {
    shape.live_nodes = 32;
    shape.history_ticks = 300;
    shape.historic_jobs = 8;
    shape.historic_s = 300.0;
    shape.measure_ticks = 10;
    shape.capacity_ticks = 10;
  } else {
    shape.measure_ticks =
        static_cast<std::size_t>(std::llround(options.seconds * shape.rate));
  }
  DashboardSetup setup;
  measure_setup(options, report,
                [&] { return setup_dashboard(options, shape, setup); });

  // Every live tick before `first_paced` is already in the store.
  const auto make_timing = [&](std::size_t first_paced, Tracer* spans) {
    auto timing = std::make_unique<TimingSink>(shape.live_job, shape.live_nodes,
                                               shape.end_tick(), first_paced, spans);
    for (std::size_t n = 0; n < shape.live_nodes; ++n) {
      timing->set_rows(n, first_paced);
    }
    return timing;
  };

  const auto first_timing = make_timing(shape.history_ticks, nullptr);
  const DashboardPhase phase = run_dashboard_phase(
      shape, setup, *first_timing, 0, mix_seed(options.seed, 0xc11e, 0), nullptr);
  check_phase(report, phase, "ingest");
  check_queries(report, shape, setup, phase);

  if (tracer == nullptr) {
    report_latency(report, "delivery", {phase.ingest_ms});
    report.metric("delivery_trend",
                  delivery_trend(phase.ingest_tick, phase.ingest_ms, 0,
                                 shape.measure_ticks),
                  "ratio", Better::Lower, kTimingBound, phase.ingest_ms.size());
    const std::vector<std::optional<double>> slo(phase.ingest_ms.begin(),
                                                 phase.ingest_ms.end());
    const SloCount misses = count_slo(slo, 1e3 / shape.rate);
    report.metric_abs("slo_miss_frac", misses.miss_frac(), "fraction", Better::Lower,
                      0.002, misses.scheduled);
    const std::vector<double> ms = phase.query_ms();
    report_latency(report, "query", {ms});
    report.metric("queries_per_s", static_cast<double>(ms.size()) / phase.elapsed_s,
                  "queries/s", Better::Higher, kTimingBound, ms.size());
    std::size_t f1_samples = 0;
    const double f1 = historic_macro_f1(setup, phase, f1_samples);
    report.metric_abs("macro_f1", f1, "score", Better::Higher, 0.002, f1_samples);

    // Capacity: the next live ticks ingested unpaced with no queries.  Each
    // replay first restores the live job to its post-phase rows, so every
    // replay appends the same ticks onto the same history.
    const PhaseLog phase_log("capacity");
    const telemetry::JobTelemetry snapshot = setup.store->query_job(shape.live_job);
    const std::size_t first = shape.history_ticks + shape.measure_ticks;
    std::vector<double> rates;
    for (int replay = 0; replay < 3; ++replay) {
      setup.store->ingest(snapshot);
      const auto timing = make_timing(first, nullptr);
      stream::StreamIngestor ingestor(*setup.store, stream::IngestorConfig{},
                                      timing.get());
      const std::int64_t start = now_ns();
      for (std::size_t t = first; t < first + shape.capacity_ticks; ++t) {
        ingestor.offer(setup.batches[t - shape.history_ticks]);
      }
      ingestor.stop();
      const stream::IngestorStats stats = ingestor.stats();
      const double elapsed = static_cast<double>(timing->last_ns() - start) / 1e9;
      rates.push_back(static_cast<double>(stats.flushed_samples) / elapsed);
      report.attempted(stats.offered_samples);
      report.failed(stats.offered_samples - stats.flushed_samples);
    }
    log_repeats("capacity_samples_per_s", rates);
    report.metric("capacity_samples_per_s", quartiles(rates).median, "samples/s",
                  Better::Higher, kTimingBound, rates.size());
    return;
  }

  // Traced run: the untraced phase above is the overhead baseline.
  const auto timing = make_timing(shape.history_ticks + shape.measure_ticks, tracer);
  const DashboardPhase traced =
      run_dashboard_phase(shape, setup, *timing, shape.measure_ticks,
                          mix_seed(options.seed, 0xc11e, 1), tracer);
  check_phase(report, traced, "ingest_traced");
  report.layer("trace.overhead_frac", overhead(phase.query_ms(), traced.query_ms()),
               "fraction", traced.queries.size());
  report.layer("bench.generator_late_ms.max", traced.loop.max_late_ms, "ms");
  layer_quantiles(report, "stream.offer_us", traced.loop.offer_us, "us", true);
  report.layer("stream.queue_depth.max",
               static_cast<double>(traced.loop.max_queue_depth), "batches");
  const std::uint64_t flushes = std::max<std::uint64_t>(1, traced.stats.flushes);
  report.layer("stream.rows_per_flush",
               static_cast<double>(traced.stats.flushed_samples) /
                   static_cast<double>(flushes),
               "rows");
  layer_quantiles(report, "stream.queue_wait_ms", traced.ingest_ms, "ms", true);
  report.layer("util.pool_queue_high_water", traced.pool_high_water, "tasks");
  const std::uint64_t lookups = traced.cache_hits + traced.cache_misses;
  report.layer("deploy.cache_hit_frac",
               static_cast<double>(traced.cache_hits) /
                   static_cast<double>(std::max<std::uint64_t>(1, lookups)),
               "fraction", lookups);
  std::map<std::string, std::vector<double>> stage_ms;
  for (const QueryRecord& q : traced.queries) {
    if (!q.analysis || q.cached) continue;
    for (const auto& stage : q.analysis->stages) {
      stage_ms[stage.stage].push_back(stage.seconds * 1e3);
    }
  }
  for (const auto& [stage, ms] : stage_ms) {
    layer_quantiles(report, "deploy.stage_" + stage + "_ms", ms, "ms", false);
  }

  // Ledger: the scorer's per-window calls on live nodes at the shipped
  // W=64/H=16.  Off this workload's critical path (it streams no verdicts),
  // so the layer costs stay comparable across workloads.
  const telemetry::JobTelemetry live = setup.store->query_job(shape.live_job);
  replay_ledger(setup.job_view->bundle(), live,
                sample_nodes(mix_seed(options.seed, 0x1ed9), shape.live_nodes,
                             shape.ledger_nodes),
                64, 16, shape.history_ticks + shape.measure_ticks, nullptr, tracer);
  time_append(live.nodes.front(), shape.history_ticks + 2 * shape.measure_ticks,
              tracer);
  std::vector<tensor::Matrix> series;
  for (std::size_t i = 0; i < std::min<std::size_t>(16, setup.historic.size()); ++i) {
    for (auto& node : setup.store->query_job(setup.historic[i]).nodes) {
      series.push_back(std::move(node.values));
    }
  }
  time_batch_extract(series, deploy::TrainFromStoreOptions{}.preprocess, tracer);
  report_span_layers(report, span_times(tracer->spans()));
}

}  // namespace prodigy::bench::e2e
