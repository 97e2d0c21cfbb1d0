// fleet_shallow and deep_window: open-loop streams through the online
// scoring stack.
//
//   fleet_shallow  256 nodes, W=64/H=16, ShardedAnalyticsService (2 shards on
//                  the global pool), open loop at 100 ticks/s
//   deep_window    16 nodes, W=1024/H=16, StreamIngestor + OnlineScorer, the
//                  first 1,024 ticks unpaced, then 300 ticks/s
//
// Latency runs from the due time of a window's last tick to its VerdictEvent
// reaching a bus subscriber.  README.md says why each workload exists.
#include "harness.hpp"

#include "eval/metrics.hpp"
#include "features/feature_matrix.hpp"
#include "stream/online_scorer.hpp"
#include "stream/sharded_service.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <memory>
#include <optional>

namespace prodigy::bench::e2e {
namespace {

using stream::SampleBatch;

// Batch-vs-stream score agreement: the documented spectral_* carve-out of the
// incremental extractor (DESIGN.md) bounds the difference at 1e-6 relative.
constexpr double kStreamBatchTolerance = 1e-6;
constexpr std::size_t kVerifyWindows = 200;

// ---------------------------------------------------------------------------
// Stream systems under test

struct StreamCounts {
  std::uint64_t offered = 0;
  std::uint64_t flushed = 0;
  std::uint64_t flushes = 0;
  std::uint64_t windows = 0;
  std::uint64_t errors = 0;
  std::uint64_t skipped = 0;
  bool balanced = false;
};

/// The streaming stack of one stream workload, behind the calls the
/// producer and the checks need.
class StreamSystem {
 public:
  virtual ~StreamSystem() = default;
  virtual void offer(const SampleBatch& batch) = 0;
  /// Stops ingest (drain, flush) and waits for every window's verdict.
  virtual void finish() = 0;
  virtual std::size_t queue_depth() const = 0;
  virtual StreamCounts counts() const = 0;
};

struct StreamShape {
  std::int64_t job_id = 0;
  std::size_t nodes = 0;
  std::size_t group = 0;  // anomaly rotation group size
  std::size_t anomalous_per_group = 0;
  std::size_t window = 0;
  std::size_t hop = 0;
  double rate = 0.0;                // paced ticks per second
  std::size_t fill_ticks = 0;       // offered unpaced first
  std::size_t warm_ticks = 0;       // paced, excluded from latency
  std::size_t measure_ticks = 0;    // paced and measured, per round
  /// The measured phase is split over this many fresh systems replaying the
  /// same ticks.  The store copies a node's whole series on every flush, so
  /// latency drifts upward with history and a long phase amplifies run-to-run
  /// noise; rounds bound the history and pool more bursts at the same length.
  std::size_t rounds = 3;
  std::size_t capacity_ticks = 0;   // per unpaced capacity replay
  std::size_t ledger_nodes = 0;     // replayed by the ledger (traced run)
  bool sharded = false;

  std::size_t measured_from() const { return fill_ticks + warm_ticks; }
  std::size_t paced_end() const { return measured_from() + measure_ticks; }
  std::size_t ticks() const { return std::max(paced_end(), capacity_ticks); }
  std::uint64_t paced_windows() const {
    return windows_after(paced_end(), window, hop);
  }
  std::size_t windows_per_node() const { return windows_after(ticks(), window, hop); }
  /// The latency objective: a verdict within one hop period of its due time.
  double slo_ms() const { return 1e3 * static_cast<double>(hop) / rate; }
};

stream::OnlineScorerConfig scorer_config(const StreamShape& shape) {
  stream::OnlineScorerConfig config;
  config.window = shape.window;
  config.hop = shape.hop;
  return config;
}

class FleetSystem final : public StreamSystem {
 public:
  FleetSystem(const core::ModelBundle& bundle, const StreamShape& shape,
              VerdictLog& log)
      : service_(bundle, config(shape)) {
    service_.bus().subscribe(
        [&log](const stream::VerdictEvent& e) { log.record(e); });
  }
  void offer(const SampleBatch& batch) override { service_.offer(batch); }
  void finish() override { service_.stop(); }
  std::size_t queue_depth() const override {
    std::size_t depth = 0;
    for (std::size_t k = 0; k < service_.shard_count(); ++k) {
      depth += service_.shard_queue_depth(k);
    }
    return depth;
  }
  StreamCounts counts() const override {
    const stream::ShardedStats stats = service_.stats();
    StreamCounts counts;
    counts.offered = stats.offered_samples;
    counts.flushed = stats.totals.flushed_samples;
    counts.flushes = stats.totals.flushes;
    counts.windows = service_.windows_scored();
    counts.errors = service_.score_errors();
    counts.balanced = stats.accounting_balances();
    return counts;
  }

 private:
  static stream::ShardedServiceConfig config(const StreamShape& shape) {
    stream::ShardedServiceConfig config;
    config.shards = 2;
    config.scorer_threads = 0;  // every shard scores on the global pool
    config.scorer = scorer_config(shape);
    return config;
  }
  stream::ShardedAnalyticsService service_;
};

class SingleSystem final : public StreamSystem {
 public:
  /// `timing` (optional) is interposed between the ingestor and the scorer.
  SingleSystem(const core::ModelBundle& bundle, const StreamShape& shape,
               VerdictLog& log, TimingSink* timing)
      : scorer_(bundle, bus_, scorer_config(shape)),
        ingestor_(store_, stream::IngestorConfig{},
                  timing != nullptr ? static_cast<stream::RowSink*>(timing)
                                    : &scorer_) {
    bus_.subscribe([&log](const stream::VerdictEvent& e) { log.record(e); });
    if (timing != nullptr) timing->set_inner(&scorer_);
  }
  void offer(const SampleBatch& batch) override { ingestor_.offer(batch); }
  void finish() override {
    ingestor_.stop();
    scorer_.drain();
  }
  std::size_t queue_depth() const override { return ingestor_.queue_depth(); }
  StreamCounts counts() const override {
    const stream::IngestorStats stats = ingestor_.stats();
    StreamCounts counts;
    counts.offered = stats.offered_samples;
    counts.flushed = stats.flushed_samples;
    counts.flushes = stats.flushes;
    counts.windows = scorer_.windows_scored();
    counts.errors = scorer_.score_errors();
    counts.skipped = scorer_.windows_skipped();
    counts.balanced = stats.offered_samples ==
                      stats.flushed_samples + stats.dropped_samples +
                          stats.duplicate_samples + stats.late_samples +
                          stats.malformed_samples;
    return counts;
  }

 private:
  deploy::DsosStore store_;
  stream::EventBus bus_;
  stream::OnlineScorer scorer_;
  stream::StreamIngestor ingestor_;  // last: stops before the scorer dies
};

// ---------------------------------------------------------------------------
// Stream workloads

struct StreamSetup {
  core::ModelBundle bundle;
  telemetry::JobTelemetry job;
  std::vector<SampleBatch> batches;  // ticks [0, shape.ticks())
};

SetupTimes setup_stream(const Options& options, const StreamShape& shape,
                        StreamSetup& out) {
  util::Timer total;
  SetupTimes times;
  deploy::DsosStore train_store;
  out.bundle =
      train_default_service(train_store, options.seed, false, 0, times).bundle();
  util::Timer generate;
  out.job = make_job(shape.job_id, shape.nodes, static_cast<double>(shape.ticks()),
                     options.seed, shape.group, shape.anomalous_per_group);
  times.generate_s += generate.elapsed_seconds();
  util::Timer encode;
  out.batches = encode_batches(out.job, 0, shape.ticks());
  times.preload_s = encode.elapsed_seconds();
  times.total_s = total.elapsed_seconds();
  return times;
}

std::unique_ptr<StreamSystem> make_system(const StreamSetup& setup,
                                          const StreamShape& shape, VerdictLog& log,
                                          TimingSink* timing) {
  if (shape.sharded) return std::make_unique<FleetSystem>(setup.bundle, shape, log);
  return std::make_unique<SingleSystem>(setup.bundle, shape, log, timing);
}

/// The measured windows of one or more paced runs.
struct Delivery {
  std::vector<double> latency_ms;             // measured windows that arrived
  std::vector<std::size_t> latency_tick;      // their last tick, paced offset
  std::vector<std::optional<double>> slo_ms;  // every measured window
  std::vector<int> truth, verdicts;

  void append(const Delivery& other) {
    const auto add = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    add(latency_ms, other.latency_ms);
    add(latency_tick, other.latency_tick);
    add(slo_ms, other.slo_ms);
    add(truth, other.truth);
    add(verdicts, other.verdicts);
  }
};

struct PacedRun {
  std::unique_ptr<VerdictLog> log;
  OpenLoopResult loop;
  StreamCounts counts;
  Delivery delivery;
  std::uint64_t windows_expected = 0;  // whole run, warm-up included
  std::uint64_t windows_delivered = 0;
  // Traced runs only.
  std::unique_ptr<TimingSink> timing;
  double window_service_ms_mean = 0.0;
  std::uint64_t node_windows = 0, exact_fallbacks = 0, recomputes = 0;
  std::uint64_t pool_tasks = 0;
  double pool_high_water = 0.0;
};

PacedRun run_paced(const StreamSetup& setup, const StreamShape& shape,
                   Tracer* tracer) {
  const PhaseLog phase_log("paced");
  auto& registry = util::MetricsRegistry::global();
  auto& histogram = registry.histogram("prodigy_stream_window_score_seconds");
  auto& inc_windows = registry.counter("prodigy_features_incremental_windows_total");
  auto& inc_fallbacks =
      registry.counter("prodigy_features_incremental_exact_fallbacks_total");
  auto& inc_scheduled =
      registry.counter("prodigy_features_incremental_scheduled_recomputes_total");
  auto& inc_drift =
      registry.counter("prodigy_features_incremental_drift_recomputes_total");
  auto& pool_submitted = registry.counter("prodigy_threadpool_tasks_submitted_total");
  auto& pool_high_water = registry.gauge("prodigy_threadpool_queue_depth_high_water");

  PacedRun run;
  run.log = std::make_unique<VerdictLog>(shape.job_id, shape.nodes,
                                         shape.windows_per_node());
  // The traced single-scorer stack gets a timing sink between the ingestor
  // and the scorer; the sharded service builds its sinks internally.
  if (tracer != nullptr && !shape.sharded) {
    run.timing = std::make_unique<TimingSink>(shape.job_id, shape.nodes,
                                              shape.paced_end(), shape.fill_ticks,
                                              tracer);
  }
  auto system = make_system(setup, shape, *run.log, run.timing.get());

  histogram.reset();
  pool_high_water.set(0.0);
  const std::uint64_t windows0 = inc_windows.value();
  const std::uint64_t fallbacks0 = inc_fallbacks.value();
  const std::uint64_t recomputes0 = inc_scheduled.value() + inc_drift.value();
  const std::uint64_t tasks0 = pool_submitted.value();

  std::function<std::size_t()> depth;
  if (tracer != nullptr) depth = [&] { return system->queue_depth(); };
  run.loop = run_open_loop(
      setup.batches, 0, 0, shape.fill_ticks, shape.paced_end(), shape.rate,
      [&](const SampleBatch& batch) { system->offer(batch); }, depth,
      [&](const Schedule& schedule) {
        if (run.timing) run.timing->set_schedule(schedule);
      },
      tracer);
  system->finish();
  run.counts = system->counts();

  const util::HistogramSnapshot service = histogram.snapshot();
  run.window_service_ms_mean =
      service.count > 0 ? service.sum / static_cast<double>(service.count) * 1e3 : 0.0;
  run.node_windows = inc_windows.value() - windows0;
  run.exact_fallbacks = inc_fallbacks.value() - fallbacks0;
  run.recomputes = inc_scheduled.value() + inc_drift.value() - recomputes0;
  run.pool_tasks = pool_submitted.value() - tasks0;
  run.pool_high_water = pool_high_water.value();

  // Latency from the due time of a window's last tick to its verdict; the
  // windows ending before the paced warm-up is over are excluded.
  run.windows_expected = shape.paced_windows() * shape.nodes;
  Delivery& out = run.delivery;
  for (std::size_t n = 0; n < shape.nodes; ++n) {
    const int label = setup.job.nodes[n].label;
    for (std::uint64_t k = 0; k < shape.paced_windows(); ++k) {
      const VerdictLog::Slot& slot = run.log->at(n, k);
      if (slot.arrival_ns != 0) ++run.windows_delivered;
      const std::uint64_t last = window_last_row(k, shape.window, shape.hop);
      if (last < shape.measured_from()) continue;
      std::optional<double> latency;
      if (slot.arrival_ns != 0) {
        const std::int64_t due = run.loop.schedule.due_ns(
            static_cast<std::int64_t>(last - shape.fill_ticks));
        latency = static_cast<double>(slot.arrival_ns - due) / 1e6;
        out.latency_ms.push_back(*latency);
        out.latency_tick.push_back(last - shape.fill_ticks);
        out.truth.push_back(label);
        out.verdicts.push_back(slot.anomalous ? 1 : 0);
      }
      out.slo_ms.push_back(latency);
    }
  }
  return run;
}

/// Gates every stream run must pass: the schedule was delivered exactly,
/// nothing failed, and the ingest accounting balances.  Also counts the run's
/// operations: every scheduled window and every offered sample.
void check_stream_run(Report& report, const PacedRun& run, const std::string& phase) {
  const StreamCounts& c = run.counts;
  const std::uint64_t undelivered =
      run.windows_expected - std::min(run.windows_expected, run.windows_delivered);
  report.attempted(run.windows_expected + c.offered);
  report.failed(undelivered + c.errors + c.skipped + c.offered -
                std::min(c.offered, c.flushed));
  report.check(phase + ".windows_delivered",
               undelivered == 0 && run.log->unexpected() == 0,
               std::to_string(run.windows_delivered) + " of " +
                   std::to_string(run.windows_expected) + " scheduled windows, " +
                   std::to_string(run.log->unexpected()) + " unexpected verdicts");
  report.check(phase + ".score_errors", c.errors == 0 && c.skipped == 0,
               std::to_string(c.errors) + " score errors, " +
                   std::to_string(c.skipped) + " skipped windows");
  report.check(phase + ".accounting", c.balanced && c.flushed == c.offered,
               std::to_string(c.offered) + " offered, " + std::to_string(c.flushed) +
                   " flushed, invariant " + (c.balanced ? "balances" : "BROKEN"));
}

/// The documented carve-out of incremental extraction: a streamed window may
/// differ from batch extraction only in spectral_* features (the sliding DFT
/// carries their state).  True when some feature differs by more than the
/// tolerance and every such feature is a spectral one; a score that moved
/// while no feature did is a scoring fault, not the carve-out.
bool differs_only_in_spectral(const tensor::Matrix& raw_window,
                              const std::vector<double>& streamed) {
  std::vector<std::string> metrics;
  for (const auto& spec : telemetry::metric_catalog()) metrics.push_back(spec.name);
  const std::vector<double> batch = features::extract_node_features(
      pipeline::preprocess_node(raw_window, stream::streaming_preprocess_defaults()));
  if (streamed.size() != batch.size()) return false;
  const std::vector<std::string> names = features::feature_column_names(metrics);
  bool spectral_differs = false;
  for (std::size_t f = 0; f < batch.size(); ++f) {
    if (relative_diff(batch[f], streamed[f]) <= kStreamBatchTolerance) continue;
    if (names[f].find("::spectral_") == std::string::npos) return false;
    spectral_differs = true;
  }
  return spectral_differs;
}

/// Re-scores a seeded sample of streamed windows through the batch
/// AnalyticsService on the raw window (the prodigy_stream --verify-batch
/// recipe): flags must agree and scores must match within 1e-6 relative,
/// unless only spectral_* features differ.
void check_against_batch(Report& report, const StreamSetup& setup,
                         const StreamShape& shape, const PacedRun& run,
                         std::uint64_t seed, std::size_t want) {
  const PhaseLog phase_log("stream_vs_batch");
  std::vector<std::pair<std::size_t, std::uint64_t>> delivered;
  for (std::size_t n = 0; n < shape.nodes; ++n) {
    for (std::uint64_t k = 0; k < shape.paced_windows(); ++k) {
      if (run.log->at(n, k).arrival_ns != 0) delivered.emplace_back(n, k);
    }
  }
  util::Rng rng(mix_seed(seed, 0xba7c));
  const std::size_t count = std::min(want, delivered.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(delivered[i], delivered[i + rng.uniform_index(delivered.size() - i)]);
  }
  delivered.resize(count);

  telemetry::JobTelemetry oracle_job;
  oracle_job.job_id = 1;
  oracle_job.app = "verify";
  for (std::size_t i = 0; i < count; ++i) {
    const auto [n, k] = delivered[i];
    telemetry::NodeSeries window;
    window.job_id = 1;
    window.component_id = static_cast<std::int64_t>(i);
    window.app = oracle_job.app;
    window.values = setup.job.nodes[n].values.slice_rows(k * shape.hop, shape.window);
    oracle_job.nodes.push_back(std::move(window));
  }
  deploy::DsosStore oracle_store;
  oracle_store.ingest(oracle_job);
  const deploy::AnalyticsService service(oracle_store, setup.bundle,
                                         stream::streaming_preprocess_defaults(),
                                         /*explain=*/false, comte::ComteConfig{}, 0);
  const deploy::JobAnalysis analysis = service.analyze_job(1);
  std::size_t flag_mismatch = 0, score_mismatch = 0, carved_out = 0;
  double worst = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [n, k] = delivered[i];
    const VerdictLog::Slot& online = run.log->at(n, k);
    const deploy::NodeVerdict& batch = analysis.nodes[i];
    if (online.anomalous != batch.anomalous) ++flag_mismatch;
    const double diff = relative_diff(online.score, batch.score);
    worst = std::max(worst, diff);
    if (diff <= kStreamBatchTolerance) continue;
    const std::vector<double> streamed = incremental_window_features(
        setup.job.nodes[n].values, shape.window, shape.hop, k);
    if (differs_only_in_spectral(oracle_job.nodes[i].values, streamed)) {
      ++carved_out;
    } else {
      ++score_mismatch;
    }
  }
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "%zu windows re-scored in batch: %zu flag mismatches, %zu score "
                "mismatches, %zu beyond 1e-6 with only spectral_* features "
                "differing, worst relative diff %.3g",
                count, flag_mismatch, score_mismatch, carved_out, worst);
  report.check("stream_vs_batch",
               count >= want && flag_mismatch == 0 && score_mismatch == 0, detail);
}

/// Fresh system per replay; ticks offered unpaced (Block backpressure).
void measure_stream_capacity(Report& report, const StreamSetup& setup,
                             const StreamShape& shape) {
  const PhaseLog phase_log("capacity");
  const std::uint64_t windows =
      windows_after(shape.capacity_ticks, shape.window, shape.hop) * shape.nodes;
  std::vector<double> rates;
  std::uint64_t delivered = 0;
  for (int replay = 0; replay < 3; ++replay) {
    VerdictLog log(shape.job_id, shape.nodes, shape.windows_per_node());
    auto system = make_system(setup, shape, log, nullptr);
    const std::int64_t start = now_ns();
    for (std::size_t t = 0; t < shape.capacity_ticks; ++t) {
      system->offer(setup.batches[t]);
    }
    system->finish();
    const double elapsed = static_cast<double>(log.last_ns() - start) / 1e9;
    rates.push_back(static_cast<double>(system->counts().flushed) / elapsed);
    delivered += log.delivered();
  }
  log_repeats("capacity_samples_per_s", rates);
  report.metric("capacity_samples_per_s", quartiles(rates).median, "samples/s",
                Better::Higher, kTimingBound, rates.size());
  const std::uint64_t expected = 3 * windows;
  report.check("capacity.windows_delivered", delivered == expected,
               std::to_string(delivered) + " of " + std::to_string(expected) +
                   " windows over 3 replays");
  report.attempted(expected);
  report.failed(expected - std::min(expected, delivered));
}

/// Per-layer metrics of the traced phase that only a stream workload has.
void report_stream_layers(Report& report, const StreamShape& shape,
                          const PacedRun& run) {
  report.layer("bench.generator_late_ms.max", run.loop.max_late_ms, "ms");
  layer_quantiles(report, "stream.offer_us", run.loop.offer_us, "us", true);
  report.layer("stream.queue_depth.max",
               static_cast<double>(run.loop.max_queue_depth), "batches");
  report.layer("stream.rows_per_flush",
               static_cast<double>(run.counts.flushed) /
                   static_cast<double>(std::max<std::uint64_t>(1, run.counts.flushes)),
               "rows");
  report.layer("stream.window_service_ms.mean", run.window_service_ms_mean, "ms",
               run.counts.windows);
  const std::uint64_t metric_windows = run.node_windows * telemetry::metric_count();
  report.layer("features.exact_fallback_frac",
               static_cast<double>(run.exact_fallbacks) /
                   static_cast<double>(std::max<std::uint64_t>(1, metric_windows)),
               "fraction", metric_windows);
  report.layer("features.recomputes", static_cast<double>(run.recomputes), "count");
  report.layer("util.pool_tasks_per_window",
               static_cast<double>(run.pool_tasks) /
                   static_cast<double>(std::max<std::uint64_t>(1, run.counts.windows)),
               "tasks");
  report.layer("util.pool_queue_high_water", run.pool_high_water, "tasks");
  if (!run.timing) return;

  // Interposed between the ingestor and the scorer (single-scorer stack).
  layer_quantiles(report, "stream.queue_wait_ms", run.timing->wait_ms(), "ms", true);
  layer_quantiles(report, "stream.on_rows_us", run.timing->call_us(), "us", false);
  std::vector<double> to_verdict_ms;
  for (std::size_t n = 0; n < shape.nodes; ++n) {
    for (std::uint64_t k = 0; k < shape.paced_windows(); ++k) {
      const std::uint64_t last = window_last_row(k, shape.window, shape.hop);
      const VerdictLog::Slot& slot = run.log->at(n, k);
      const std::int64_t returned = run.timing->returned_ns(n, last);
      if (last < shape.measured_from() || slot.arrival_ns == 0 || returned == 0) {
        continue;
      }
      to_verdict_ms.push_back(static_cast<double>(slot.arrival_ns - returned) / 1e6);
    }
  }
  layer_quantiles(report, "stream.enqueue_to_verdict_ms", to_verdict_ms, "ms", true);
}

void run_stream_workload(const Options& options, Report& report, Tracer* tracer,
                         StreamShape shape) {
  if (options.smoke) {
    shape.nodes = std::min<std::size_t>(shape.nodes, 8);
    shape.warm_ticks = 2 * shape.hop;
    shape.measure_ticks = 4 * shape.hop;
    shape.rounds = 1;
    shape.capacity_ticks = shape.window + 4 * shape.hop;
  } else {
    shape.measure_ticks = static_cast<std::size_t>(
        std::llround(options.seconds * shape.rate / static_cast<double>(shape.rounds)));
  }
  StreamSetup setup;
  measure_setup(options, report, [&] { return setup_stream(options, shape, setup); });
  const std::size_t verify = options.smoke ? 16 : kVerifyWindows;
  const std::vector<std::size_t> ledger_nodes = sample_nodes(
      mix_seed(options.seed, 0x1ed9), shape.nodes, tracer ? shape.ledger_nodes : 1);

  if (tracer == nullptr) {
    Delivery pooled;
    std::vector<std::vector<double>> round_ms;
    for (std::size_t r = 1; r <= shape.rounds; ++r) {
      const PacedRun run = run_paced(setup, shape, nullptr);
      check_stream_run(report, run, "paced_round" + std::to_string(r));
      pooled.append(run.delivery);
      round_ms.push_back(run.delivery.latency_ms);
      if (r > 1) continue;  // every round replays the same ticks
      check_against_batch(report, setup, shape, run, options.seed, verify);
      // One replayed node is enough to pin bit-equality.
      check_ledger(report, replay_ledger(setup.bundle, setup.job, ledger_nodes,
                                         shape.window, shape.hop, shape.paced_end(),
                                         run.log.get(), nullptr));
    }
    report_latency(report, "delivery", round_ms);
    const std::size_t from = shape.warm_ticks;
    report.metric("delivery_trend",
                  delivery_trend(pooled.latency_tick, pooled.latency_ms, from,
                                 from + shape.measure_ticks),
                  "ratio", Better::Lower, kTimingBound, pooled.latency_ms.size());
    const SloCount slo = count_slo(pooled.slo_ms, shape.slo_ms());
    report.metric_abs("slo_miss_frac", slo.miss_frac(), "fraction", Better::Lower,
                      0.002, slo.scheduled);
    report.metric_abs("macro_f1", eval::macro_f1(pooled.truth, pooled.verdicts),
                      "score", Better::Higher, 0.002, pooled.truth.size());
    measure_stream_capacity(report, setup, shape);
    return;
  }

  // Traced run: one untraced round for the overhead baseline, then the same
  // round with spans, then the ledger.
  const PacedRun plain = run_paced(setup, shape, nullptr);
  check_stream_run(report, plain, "paced_untraced");
  const PacedRun run = run_paced(setup, shape, tracer);
  check_stream_run(report, run, "paced_traced");
  check_against_batch(report, setup, shape, run, options.seed, verify);
  report.layer("trace.overhead_frac",
               overhead(plain.delivery.latency_ms, run.delivery.latency_ms), "fraction",
               run.delivery.latency_ms.size());
  report_stream_layers(report, shape, run);

  check_ledger(report, replay_ledger(setup.bundle, setup.job, ledger_nodes,
                                     shape.window, shape.hop, shape.paced_end(),
                                     run.log.get(), tracer));
  time_append(setup.job.nodes.front(), shape.paced_end(), tracer);
  std::vector<tensor::Matrix> windows;
  for (const std::size_t n : ledger_nodes) {
    windows.push_back(
        setup.job.nodes[n].values.slice_rows(shape.fill_ticks, shape.window));
  }
  time_batch_extract(windows, stream::streaming_preprocess_defaults(), tracer);
  const auto times = span_times(tracer->spans());
  report_span_layers(report, times);
  // Reconciliation against the program's own per-window timer, which spans
  // absorb_and_extract .. the counter lookup (publish happens after it).
  // Means add up where medians do not.
  const auto stage_mean_ms = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : mean(it->second.duration_ns) / 1e6;
  };
  const double ledger_ms =
      stage_mean_ms("features.absorb_and_extract") +
      stage_mean_ms("pipeline.transform_full") + stage_mean_ms("nn.score") +
      stage_mean_ms("util.counter_lookup");
  report.layer("ledger.unattributed_frac",
               1.0 - ledger_ms / std::max(1e-12, run.window_service_ms_mean),
               "fraction");
}

}  // namespace

void run_fleet_shallow(const Options& options, Report& report, Tracer* tracer) {
  StreamShape shape;
  shape.job_id = 500;
  shape.nodes = 256;
  shape.group = 32;
  shape.anomalous_per_group = 8;  // 64 anomalous nodes, 8 Table-2 configs
  shape.window = 64;
  shape.hop = 16;
  shape.rate = 100.0;
  shape.warm_ticks = 256;
  shape.capacity_ticks = 960;
  shape.ledger_nodes = 16;
  shape.sharded = true;
  run_stream_workload(options, report, tracer, shape);
}

void run_deep_window(const Options& options, Report& report, Tracer* tracer) {
  StreamShape shape;
  shape.job_id = 600;
  shape.nodes = 16;
  shape.group = 4;
  shape.anomalous_per_group = 1;  // 4 anomalous nodes
  shape.window = 1024;
  shape.hop = 16;
  shape.rate = 300.0;
  shape.fill_ticks = 1024;
  shape.warm_ticks = 1024;
  shape.capacity_ticks = 4096;
  shape.ledger_nodes = 4;
  run_stream_workload(options, report, tracer, shape);
}

}  // namespace prodigy::bench::e2e
