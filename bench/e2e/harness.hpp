// The measuring machinery the workloads share: the open-loop producer, the
// verdict and row timing sinks, metric helpers, and the single-threaded
// ledger that replays the scorer's per-window calls with spans around each.
#pragma once

#include "bench.hpp"
#include "stats.hpp"

#include "features/incremental_profile.hpp"
#include "pipeline/preprocess.hpp"
#include "stream/event_bus.hpp"
#include "stream/ingestor.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace prodigy::bench::e2e {

/// Logs the enclosing scope as one phase when it ends.
class PhaseLog {
 public:
  explicit PhaseLog(const char* name) : name_(name) {}
  ~PhaseLog() { log_phase(name_, timer_.elapsed_seconds()); }
  PhaseLog(const PhaseLog&) = delete;
  PhaseLog& operator=(const PhaseLog&) = delete;

 private:
  const char* name_;
  util::Timer timer_;
};

double relative_diff(double a, double b);
double mean(const std::vector<double>& values);

/// <prefix>_p50_ms, _p90_ms and _p99_ms over rounds that each measured a
/// latency sample in milliseconds: each percentile is the median of the
/// rounds' own, so one round slowed by a neighbour on the host does not
/// move it.
void report_latency(Report& report, const std::string& prefix,
                    const std::vector<std::vector<double>>& rounds);

/// delivery_trend: the median latency of outputs due in the last third of
/// the measured ticks [from, to) over that of the first third.  Near 1 when
/// the open-loop rate is sustained; it grows with a backlog.
double delivery_trend(const std::vector<std::size_t>& ticks,
                      const std::vector<double>& ms, std::size_t from, std::size_t to);

/// trace.overhead_frac: the traced phase's median latency over the untraced
/// phase's, minus one.
double overhead(std::vector<double> untraced, std::vector<double> traced);

/// Per-layer <name>.p50 (and .p99) of a sample.
void layer_quantiles(Report& report, const std::string& name,
                     std::vector<double> values, const std::string& unit,
                     bool with_p99);

/// Seeded sample of `count` distinct node indices out of `nodes`, ascending.
std::vector<std::size_t> sample_nodes(std::uint64_t seed, std::size_t nodes,
                                      std::size_t count);

// ---------------------------------------------------------------------------
// Verdict collection

/// One slot per (node, window index) of a job: arrival time, score and flag
/// of its VerdictEvent.  Each node's verdicts are published by one chained
/// task at a time, so a slot is only ever written by one thread; the log is
/// read after the scorer drained.
class VerdictLog {
 public:
  struct Slot {
    std::int64_t arrival_ns = 0;  // 0 = no verdict
    double score = 0.0;
    bool anomalous = false;
  };

  VerdictLog(std::int64_t job_id, std::size_t nodes, std::size_t windows_per_node)
      : job_id_(job_id), nodes_(nodes), windows_(windows_per_node),
        slots_(nodes * windows_per_node) {}

  void record(const stream::VerdictEvent& event);

  const Slot& at(std::size_t node, std::size_t window) const {
    return slots_[node * windows_ + window];
  }
  std::uint64_t delivered() const { return delivered_.load(); }
  std::uint64_t unexpected() const { return unexpected_.load(); }
  std::int64_t last_ns() const { return last_ns_.load(); }

 private:
  const std::int64_t job_id_;
  const std::size_t nodes_;
  const std::size_t windows_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> unexpected_{0};
  std::atomic<std::int64_t> last_ns_{0};
};

// ---------------------------------------------------------------------------
// Row timing

/// RowSink that timestamps every flushed run of rows on the ingestor's
/// consumer thread (rows have landed in the store by then) and optionally
/// forwards to the real sink.  Queue wait = tick due -> on_rows entry.
class TimingSink final : public stream::RowSink {
 public:
  /// Rows of ticks in [0, ticks) are timed; ticks before `first_paced` have
  /// no due time.
  TimingSink(std::int64_t job_id, std::size_t nodes, std::size_t ticks,
             std::size_t first_paced, Tracer* tracer);

  /// Due times of paced ticks: tick first_paced + i is due at due_ns(i).  Set
  /// before the first paced tick is offered (the queue's lock orders it
  /// before the consumer reads it).
  void set_schedule(const Schedule& schedule) { schedule_ = schedule; }
  /// The sink rows are forwarded to (none by default); set before the first
  /// offer.
  void set_inner(stream::RowSink* inner) { inner_ = inner; }
  /// Rows a node already had before this sink saw any.
  void set_rows(std::size_t node, std::uint64_t rows) { rows_[node].store(rows); }

  void on_rows(std::int64_t job_id, std::int64_t component_id, const std::string& app,
               std::span<const std::int64_t> timestamps,
               const tensor::Matrix& rows) override;

  // Read after the ingestor stopped (its join orders the consumer's writes).
  const std::vector<double>& wait_ms() const { return wait_ms_; }
  /// Paced tick offset (tick - first_paced) of each wait_ms() entry.
  const std::vector<std::size_t>& wait_ticks() const { return wait_ticks_; }
  const std::vector<double>& call_us() const { return call_us_; }
  std::int64_t returned_ns(std::size_t node, std::size_t tick) const {
    return returned_ns_[node * ticks_ + tick];
  }
  std::int64_t last_ns() const { return last_ns_.load(); }
  /// Rows handed over so far for one node (any thread).
  std::uint64_t rows(std::size_t node) const { return rows_[node].load(); }

 private:
  stream::RowSink* inner_ = nullptr;
  const std::int64_t job_id_;
  const std::size_t ticks_;
  const std::size_t first_paced_;
  Tracer* tracer_;
  Schedule schedule_;
  std::vector<std::atomic<std::uint64_t>> rows_;
  std::vector<std::int64_t> returned_ns_;
  std::vector<double> wait_ms_;
  std::vector<std::size_t> wait_ticks_;
  std::vector<double> call_us_;
  std::atomic<std::int64_t> last_ns_{0};
};

// ---------------------------------------------------------------------------
// Open-loop producer

struct OpenLoopResult {
  Schedule schedule;  // paced tick fill_end + i is due at schedule.due_ns(i)
  std::vector<double> offer_us;  // paced offer() calls, Block stalls included
  double max_late_ms = 0.0;
  std::size_t max_queue_depth = 0;
};

/// Offers ticks [begin, fill_end) unpaced, then [fill_end, end) on a fixed
/// schedule of `rate` ticks/s that never slows when the system does.  A
/// late producer is recorded, not compensated.  `batches[i]` holds tick
/// batch_base + i.  When `depth` is set, the queue depth is sampled every
/// 10 ms while waiting.
OpenLoopResult run_open_loop(
    const std::vector<stream::SampleBatch>& batches, std::size_t batch_base,
    std::size_t begin, std::size_t fill_end, std::size_t end, double rate,
    const std::function<void(const stream::SampleBatch&)>& offer,
    const std::function<std::size_t()>& depth,
    const std::function<void(const Schedule&)>& on_schedule, Tracer* tracer);

// ---------------------------------------------------------------------------
// Ledger: the scorer's per-window call sequence, replayed on one thread

/// The incremental extractor exactly as OnlineScorer configures it for one
/// node at a (window, hop) shape with the streaming preprocess defaults.
std::unique_ptr<features::IncrementalNodeExtractor> make_extractor(
    std::size_t cols, std::size_t window, std::size_t hop);

/// Streamed (incremental) feature vector of window k of one node's series;
/// empty when the series has no such window.
std::vector<double> incremental_window_features(const tensor::Matrix& series,
                                                std::size_t window, std::size_t hop,
                                                std::uint64_t k);

struct LedgerResult {
  std::uint64_t windows = 0;
  std::uint64_t mismatches = 0;  // score not bit-equal to the streamed one
  std::uint64_t missing = 0;     // no streamed verdict to compare with
};

/// Replays `nodes` of `job` over ticks [0, ticks) through exactly the calls
/// OnlineScorer makes per window (WindowState::pop_delta,
/// IncrementalNodeExtractor::absorb_and_extract, ModelBundle::transform_full,
/// ProdigyDetector::score, the two registry lookups, EventBus::publish)
/// inside one global-pool task, so nested parallel_for runs inline exactly as
/// on a scoring worker.  Scores are compared bit for bit with `streamed`
/// when given.
LedgerResult replay_ledger(const core::ModelBundle& bundle,
                           const telemetry::JobTelemetry& job,
                           const std::vector<std::size_t>& nodes, std::size_t window,
                           std::size_t hop, std::size_t ticks,
                           const VerdictLog* streamed, Tracer* tracer);

void check_ledger(Report& report, const LedgerResult& ledger);

/// Times DsosStore::append_node of one flush of one node (one row: a paced
/// flush carries one tick) onto a series of `history` rows.
void time_append(const telemetry::NodeSeries& node, std::size_t history,
                 Tracer* tracer);

/// Times the batch feature path (preprocess_node, extract_node_features) on
/// raw series of this workload.
void time_batch_extract(const std::vector<tensor::Matrix>& series,
                        const pipeline::PreprocessOptions& preprocess, Tracer* tracer);

/// The per-layer metrics every traced run reports, from the spans of the
/// ledger, time_append and time_batch_extract.
void report_span_layers(Report& report, const std::map<std::string, SpanTimes>& times);

}  // namespace prodigy::bench::e2e
