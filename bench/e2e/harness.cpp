#include "harness.hpp"

#include "features/feature_matrix.hpp"
#include "stream/online_scorer.hpp"
#include "stream/window.hpp"
#include "telemetry/metrics.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace prodigy::bench::e2e {
namespace {

void sleep_until_ns(std::int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

std::vector<double> scaled(std::vector<double> values, double factor) {
  for (double& v : values) v *= factor;
  return values;
}

}  // namespace

double relative_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale > 0.0 ? std::fabs(a - b) / scale : 0.0;
}

void report_latency(Report& report, const std::string& prefix,
                    const std::vector<std::vector<double>>& rounds) {
  std::vector<std::vector<double>> sorted = rounds;
  std::size_t samples = 0;
  for (auto& ms : sorted) {
    std::sort(ms.begin(), ms.end());
    samples += ms.size();
    if (highest_supported_percentile(ms.size()) < 0.99) {
      std::fprintf(stderr, "note: %s_p99_ms rests on %zu samples (< 10 beyond p99)\n",
                   prefix.c_str(), ms.size());
    }
  }
  for (const auto& [suffix, q] :
       {std::pair{"_p50_ms", 0.5}, {"_p90_ms", 0.9}, {"_p99_ms", 0.99}}) {
    std::vector<double> per_round;
    for (const auto& ms : sorted) per_round.push_back(nearest_rank(ms, q));
    const std::string name = prefix + suffix;
    log_repeats(name.c_str(), per_round);
    report.metric(name, quartiles(per_round).median, "ms", Better::Lower, kTimingBound,
                  samples);
  }
}

double delivery_trend(const std::vector<std::size_t>& ticks,
                      const std::vector<double>& ms, std::size_t from, std::size_t to) {
  const std::size_t third = (to - from) / 3;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ticks[i] >= from && ticks[i] < from + third) first.push_back(ms[i]);
    if (ticks[i] >= to - third && ticks[i] < to) last.push_back(ms[i]);
  }
  std::sort(first.begin(), first.end());
  std::sort(last.begin(), last.end());
  const double base = nearest_rank(first, 0.5);
  return base > 0.0 ? nearest_rank(last, 0.5) / base : 0.0;
}

double overhead(std::vector<double> untraced, std::vector<double> traced) {
  std::sort(untraced.begin(), untraced.end());
  std::sort(traced.begin(), traced.end());
  const double base = nearest_rank(untraced, 0.5);
  return base > 0.0 ? nearest_rank(traced, 0.5) / base - 1.0 : 0.0;
}

void layer_quantiles(Report& report, const std::string& name,
                     std::vector<double> values, const std::string& unit,
                     bool with_p99) {
  std::sort(values.begin(), values.end());
  report.layer(name + ".p50", nearest_rank(values, 0.5), unit, values.size());
  if (with_p99) {
    report.layer(name + ".p99", nearest_rank(values, 0.99), unit, values.size());
  }
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Verdict collection

void VerdictLog::record(const stream::VerdictEvent& event) {
  const std::int64_t now = now_ns();
  const std::int64_t node = event.component_id - job_id_ * kComponentsPerJob;
  if (event.job_id != job_id_ || node < 0 ||
      static_cast<std::size_t>(node) >= nodes_ || event.window_index >= windows_) {
    unexpected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[static_cast<std::size_t>(node) * windows_ + event.window_index];
  if (slot.arrival_ns != 0) {
    unexpected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot = Slot{now, event.score, event.anomalous};
  delivered_.fetch_add(1, std::memory_order_relaxed);
  std::int64_t last = last_ns_.load(std::memory_order_relaxed);
  while (last < now &&
         !last_ns_.compare_exchange_weak(last, now, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Row timing

TimingSink::TimingSink(std::int64_t job_id, std::size_t nodes, std::size_t ticks,
                       std::size_t first_paced, Tracer* tracer)
    : job_id_(job_id), ticks_(ticks), first_paced_(first_paced), tracer_(tracer),
      rows_(nodes), returned_ns_(nodes * ticks, 0) {}

void TimingSink::on_rows(std::int64_t job_id, std::int64_t component_id,
                         const std::string& app,
                         std::span<const std::int64_t> timestamps,
                         const tensor::Matrix& rows) {
  const std::int64_t start = now_ns();
  {
    ScopedSpan span(tracer_, "stream.on_rows",
                    static_cast<std::uint64_t>(component_id));
    if (inner_ != nullptr) {
      inner_->on_rows(job_id, component_id, app, timestamps, rows);
    }
  }
  const std::int64_t end = now_ns();
  const std::int64_t node = component_id - job_id_ * kComponentsPerJob;
  if (job_id != job_id_ || node < 0 ||
      static_cast<std::size_t>(node) >= rows_.size()) {
    return;
  }
  const auto n = static_cast<std::size_t>(node);
  for (const std::int64_t ts : timestamps) {
    const auto tick = static_cast<std::size_t>(ts);
    if (tick >= first_paced_) {
      const auto i = static_cast<std::int64_t>(tick - first_paced_);
      wait_ms_.push_back(static_cast<double>(start - schedule_.due_ns(i)) / 1e6);
      wait_ticks_.push_back(tick - first_paced_);
    }
    if (tick < ticks_) returned_ns_[n * ticks_ + tick] = end;
  }
  rows_[n].fetch_add(timestamps.size());
  call_us_.push_back(static_cast<double>(end - start) / 1e3);
  last_ns_.store(end);
}

OpenLoopResult run_open_loop(
    const std::vector<stream::SampleBatch>& batches, std::size_t batch_base,
    std::size_t begin, std::size_t fill_end, std::size_t end, double rate,
    const std::function<void(const stream::SampleBatch&)>& offer,
    const std::function<std::size_t()>& depth,
    const std::function<void(const Schedule&)>& on_schedule, Tracer* tracer) {
  constexpr std::int64_t kSampleEvery = 10'000'000;
  OpenLoopResult result;
  for (std::size_t t = begin; t < fill_end; ++t) offer(batches[t - batch_base]);
  result.schedule = Schedule{now_ns() + 2'000'000, rate};
  if (on_schedule) on_schedule(result.schedule);
  std::int64_t next_sample = result.schedule.start_ns;
  result.offer_us.reserve(end - fill_end);
  for (std::size_t t = fill_end; t < end; ++t) {
    const auto tick = static_cast<std::int64_t>(t - fill_end);
    const std::int64_t due = result.schedule.due_ns(tick);
    for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
      if (depth && now >= next_sample) {
        result.max_queue_depth = std::max(result.max_queue_depth, depth());
        next_sample = now + kSampleEvery;
      }
      sleep_until_ns(depth ? std::min(due, next_sample) : due);
    }
    const std::int64_t start = now_ns();
    const std::int64_t late_ns = result.schedule.late_ns(tick, start);
    result.max_late_ms =
        std::max(result.max_late_ms, static_cast<double>(late_ns) / 1e6);
    {
      ScopedSpan span(tracer, "stream.offer", t);
      offer(batches[t - batch_base]);
    }
    result.offer_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return result;
}

std::unique_ptr<features::IncrementalNodeExtractor> make_extractor(
    std::size_t cols, std::size_t window, std::size_t hop) {
  const pipeline::PreprocessOptions preprocess =
      stream::streaming_preprocess_defaults();
  std::vector<features::ColumnKind> kinds;
  for (const auto& spec : telemetry::metric_catalog()) {
    kinds.push_back(spec.kind == telemetry::MetricKind::Counter
                        ? features::ColumnKind::kCounter
                        : features::ColumnKind::kGauge);
  }
  features::IncrementalConfig inc;
  inc.window = window;
  inc.hop = hop;
  inc.interpolate = preprocess.interpolate;
  inc.diff_counters = preprocess.diff_counters;
  return std::make_unique<features::IncrementalNodeExtractor>(cols, std::move(kinds),
                                                              inc);
}

std::vector<double> incremental_window_features(const tensor::Matrix& series,
                                                std::size_t window, std::size_t hop,
                                                std::uint64_t k) {
  const std::size_t cols = series.cols();
  stream::WindowState state(window, hop, cols);
  auto extractor = make_extractor(cols, window, hop);
  std::vector<double> features(cols * features::features_per_metric());
  tensor::Matrix delta;
  for (std::size_t t = 0; t < series.rows(); ++t) {
    state.push_row(static_cast<std::int64_t>(t), series.row(t));
    while (state.ready()) {
      const stream::WindowSpan span = state.pop_delta(delta);
      const bool complete = extractor->absorb_and_extract(delta, features);
      if (span.index == k) return complete ? features : std::vector<double>{};
    }
  }
  return {};
}

LedgerResult replay_ledger(const core::ModelBundle& bundle,
                           const telemetry::JobTelemetry& job,
                           const std::vector<std::size_t>& nodes, std::size_t window,
                           std::size_t hop, std::size_t ticks,
                           const VerdictLog* streamed, Tracer* tracer) {
  const PhaseLog phase_log("ledger");
  const std::size_t windows_per_node = windows_after(ticks, window, hop);
  LedgerResult result;
  util::ThreadPool::global()
      .submit([&] {
        auto& registry = util::MetricsRegistry::global();
        VerdictLog replayed(job.job_id, job.nodes.size(), windows_per_node);
        stream::EventBus bus;
        bus.subscribe(
            [&replayed](const stream::VerdictEvent& e) { replayed.record(e); });
        tensor::Matrix delta;
        tensor::Matrix X;
        for (const std::size_t n : nodes) {
          const telemetry::NodeSeries& node = job.nodes[n];
          const std::size_t cols = node.values.cols();
          stream::WindowState state(window, hop, cols);
          auto extractor = make_extractor(cols, window, hop);
          std::vector<double> features(cols * features::features_per_metric());
          for (std::size_t t = 0; t < ticks; ++t) {
            state.push_row(static_cast<std::int64_t>(t), node.values.row(t));
            while (state.ready()) {
              const std::uint64_t id =
                  static_cast<std::uint64_t>(node.component_id) << 20 |
                  state.windows_emitted();
              ScopedSpan whole(tracer, "ledger.window", id);
              const std::size_t parent = whole.handle();
              stream::WindowSpan span;
              {
                ScopedSpan s(tracer, "stream.pop_delta", id, parent);
                span = state.pop_delta(delta);
              }
              bool complete = false;
              {
                ScopedSpan s(tracer, "features.absorb_and_extract", id, parent);
                complete = extractor->absorb_and_extract(delta, features);
              }
              if (!complete) continue;
              X.resize_for_overwrite(1, features.size());
              X.set_row(0, features);
              tensor::Matrix model_input;
              {
                ScopedSpan s(tracer, "pipeline.transform_full", id, parent);
                model_input = bundle.transform_full(X);
              }
              std::vector<double> scores;
              {
                ScopedSpan s(tracer, "nn.score", id, parent);
                scores = bundle.detector.score(model_input);
              }
              {
                ScopedSpan s(tracer, "util.counter_lookup", id, parent);
                registry.counter("prodigy_bench_ledger_windows_scored_total")
                    .increment();
              }
              {
                ScopedSpan s(tracer, "util.histogram_lookup", id, parent);
                registry.histogram("prodigy_bench_ledger_window_score_seconds")
                    .observe(0.0);
              }
              stream::VerdictEvent event;
              event.job_id = node.job_id;
              event.component_id = node.component_id;
              event.app = node.app;
              event.window_index = span.index;
              event.window_start_ts = span.start_ts;
              event.window_end_ts = span.end_ts;
              event.score = scores.at(0);
              event.threshold = bundle.detector.threshold();
              event.anomalous = event.score > event.threshold;
              {
                ScopedSpan s(tracer, "stream.publish", id, parent);
                bus.publish(event);
              }
              ++result.windows;
              if (streamed != nullptr) {
                const VerdictLog::Slot& slot = streamed->at(n, span.index);
                if (slot.arrival_ns == 0) {
                  ++result.missing;
                } else if (slot.score != event.score ||
                           slot.anomalous != event.anomalous) {
                  ++result.mismatches;
                }
              }
            }
          }
        }
      })
      .get();
  return result;
}

std::vector<std::size_t> sample_nodes(std::uint64_t seed, std::size_t nodes,
                                      std::size_t count) {
  std::vector<std::size_t> all(nodes);
  for (std::size_t i = 0; i < nodes; ++i) all[i] = i;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < std::min(count, nodes); ++i) {
    std::swap(all[i], all[i + rng.uniform_index(nodes - i)]);
  }
  all.resize(std::min(count, nodes));
  std::sort(all.begin(), all.end());
  return all;
}

void time_append(const telemetry::NodeSeries& node, std::size_t history,
                 Tracer* tracer) {
  deploy::DsosStore store;
  telemetry::NodeSeries base = node;
  base.values = node.values.slice_rows(0, std::min(history, node.values.rows()));
  store.ingest_node(base);
  telemetry::NodeSeries delta = node;
  delta.values = node.values.slice_rows(0, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    ScopedSpan span(tracer, "deploy.append_node", i);
    store.append_node(delta);
  }
}

void time_batch_extract(const std::vector<tensor::Matrix>& series,
                        const pipeline::PreprocessOptions& preprocess, Tracer* tracer) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    tensor::Matrix prepared;
    {
      ScopedSpan span(tracer, "pipeline.preprocess_node", i);
      prepared = pipeline::preprocess_node(series[i], preprocess);
    }
    ScopedSpan span(tracer, "features.extract_node_features", i);
    (void)features::extract_node_features(prepared);
  }
}

void report_span_layers(Report& report, const std::map<std::string, SpanTimes>& times) {
  const auto durations = [&](const char* name, double scale) {
    const auto it = times.find(name);
    return it == times.end() ? std::vector<double>{}
                             : scaled(it->second.duration_ns, scale);
  };
  const std::vector<double> absorb_us = durations("features.absorb_and_extract", 1e-3);
  layer_quantiles(report, "features.absorb_extract_us", absorb_us, "us", true);
  const auto cols = static_cast<double>(telemetry::metric_count());
  layer_quantiles(report, "features.absorb_extract_us_per_metric",
                  scaled(absorb_us, 1.0 / cols), "us", false);
  layer_quantiles(report, "stream.pop_delta_us", durations("stream.pop_delta", 1e-3),
                  "us", false);
  layer_quantiles(report, "pipeline.transform_full_us",
                  durations("pipeline.transform_full", 1e-3), "us", false);
  layer_quantiles(report, "nn.score_row_us", durations("nn.score", 1e-3), "us", false);
  std::vector<double> record_us = durations("util.counter_lookup", 1e-3);
  const std::vector<double> observe_us = durations("util.histogram_lookup", 1e-3);
  for (std::size_t i = 0; i < std::min(record_us.size(), observe_us.size()); ++i) {
    record_us[i] += observe_us[i];
  }
  layer_quantiles(report, "util.metrics_record_us", record_us, "us", false);
  layer_quantiles(report, "stream.publish_us", durations("stream.publish", 1e-3), "us",
                  true);
  const auto window = times.find("ledger.window");
  if (window != times.end()) {
    report.layer("ledger.window_self_us.mean", mean(window->second.self_ns) / 1e3, "us",
                 window->second.self_ns.size());
  }
  layer_quantiles(report, "deploy.append_us", durations("deploy.append_node", 1e-3),
                  "us", true);
  layer_quantiles(report, "pipeline.preprocess_node_ms",
                  durations("pipeline.preprocess_node", 1e-6), "ms", false);
  layer_quantiles(report, "features.extract_node_ms",
                  durations("features.extract_node_features", 1e-6), "ms", false);
}

void check_ledger(Report& report, const LedgerResult& ledger) {
  report.check("ledger_bit_equal",
               ledger.windows > 0 && ledger.mismatches == 0 && ledger.missing == 0,
               std::to_string(ledger.windows) + " replayed windows, " +
                   std::to_string(ledger.mismatches) + " score mismatches, " +
                   std::to_string(ledger.missing) + " without a streamed verdict");
}

}  // namespace prodigy::bench::e2e
