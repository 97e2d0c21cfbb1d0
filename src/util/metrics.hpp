// Process-wide observability: a thread-safe registry of named counters,
// gauges, and bounded histograms, plus a scoped StageTimer that traces
// per-stage wall time into the registry.  Every pipeline stage (telemetry
// query, preprocessing, feature extraction, scoring, CoMTE search) records
// here so deployments can export one snapshot in Prometheus text or JSON
// format.  See docs/observability.md for the naming scheme.
#pragma once

#include "util/timer.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace prodigy::util {

/// Monotonically increasing event count.  Lock-free.
class Counter {
 public:
  void increment(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value with an update_max variant for high-water marks.
/// Lock-free (CAS loops instead of fetch_add so pre-C++20-atomic-double
/// toolchains behave identically).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if `v` exceeds the stored value.
  void update_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (current < v && !value_.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Bounded-memory distribution tracker: count/sum/min/max cover every
/// observation ever made; quantiles are nearest-rank over a sliding window
/// of the most recent `capacity` samples.
class Histogram {
 public:
  explicit Histogram(std::size_t capacity = kDefaultCapacity);

  void observe(double value);
  HistogramSnapshot snapshot() const;

  /// Drop all recorded state (count/sum/extrema and the quantile window);
  /// references stay valid.  Benchmarks use this to isolate one pass's
  /// latency distribution from the previous one.
  void reset();

  static constexpr std::size_t kDefaultCapacity = 2048;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;  // ring buffer of the most recent values
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metric registry.  Lookup lazily creates the metric; references stay
/// valid for the registry's lifetime (reset() included), so hot paths
/// resolve their metrics once and keep the reference.  A name is bound to
/// exactly one metric kind -- requesting it as another kind throws
/// std::logic_error, which also guarantees exports never emit duplicate
/// metric names.  Names are sanitized to Prometheus form on registration
/// ('.', '/', '-' -> '_'), so "pipeline.preprocess" and
/// "pipeline_preprocess" address the same metric.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::size_t capacity = Histogram::kDefaultCapacity);

  /// Prometheus text exposition: one `# TYPE` line per metric (counter,
  /// gauge, or summary with p50/p95/p99 quantile samples plus _sum/_count).
  std::string to_prometheus() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;

  /// Writes to_json() when `path` ends in ".json", to_prometheus() otherwise.
  void write_file(const std::string& path) const;

  /// Zeroes every metric in place: counters and gauges read 0 and
  /// histograms are empty.  Names stay registered and references obtained
  /// earlier stay valid, so a handle resolved once (the thread pool's
  /// counters, the ingest, DSOS, extractor, bus and scorer metrics) keeps
  /// counting into the registry.  Intended for tests.
  void reset();

  static std::string sanitize_name(const std::string& name);

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& lookup(const std::string& name, Kind kind, std::size_t capacity);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // sorted -> deterministic exports
};

/// The global registry histogram `prodigy_stage_<stage>_seconds` that a
/// StageTimer for `stage` records into.  Hot paths resolve it once.
Histogram& stage_histogram(const std::string& stage);

/// RAII wall-time tracer for one pipeline stage.  On stop (or destruction)
/// it records the elapsed seconds into the stage's histogram, optionally
/// stores them into `*sink` (used for per-request latency breakdowns), and
/// emits a structured trace line at debug log level.  `stage` must outlive
/// the timer (every caller passes a literal).
class StageTimer {
 public:
  /// Looks the histogram up by name when the timer stops.
  explicit StageTimer(const char* stage, double* sink = nullptr);
  /// Records into `histogram`, which a hot path resolved once through
  /// stage_histogram(stage): no registry lookup and no name build.
  StageTimer(Histogram& histogram, const char* stage, double* sink = nullptr);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

  /// Records now and returns the elapsed seconds.  Idempotent: later calls
  /// (and destruction) return the first measurement without re-recording.
  double stop();

 private:
  const char* stage_;
  Histogram* histogram_;  // null: resolved by name on stop()
  double* sink_;
  Timer timer_;
  double recorded_ = 0.0;
  bool stopped_ = false;
};

}  // namespace prodigy::util
