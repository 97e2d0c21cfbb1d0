// Shared pieces of the end-to-end benchmark binary: run options, the metric
// report every workload fills in, and the seeded inputs all workloads share
// (the training store and the default-model bundle).
#pragma once

#include "core/model_trainer.hpp"
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "stream/sample_batch.hpp"
#include "telemetry/generator.hpp"
#include "trace.hpp"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace prodigy::bench::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the open-loop measured phase; every other phase has a fixed
  /// size so the same work is compared across commits.
  double seconds = 12.0;
  bool smoke = false;       // tiny phases, correctness gates only
  std::string trace_path;   // non-empty: traced run, spans written here
  std::string out_path;     // result JSON
};

enum class Better { Lower, Higher };

/// Allowed worsening of every timing and throughput metric, as a share of
/// the parent's median.  On a shared 4-vCPU host the stream latencies'
/// quartile spread over 10 runs was 10-19%, and it follows the host's speed:
/// their median correlated 0.5-0.9 with setup_s, which is pure computation.
/// A 10% bound would flag that noise; 25% holds it (README.md).
inline constexpr double kTimingBound = 0.25;

struct MetricValue {
  double value = 0.0;
  std::string unit;
  Better better = Better::Lower;
  /// Allowed worsening: a share of the parent's median, or (absolute) a
  /// difference in the metric's own unit.  Per-layer metrics carry none.
  double bound = 0.0;
  bool absolute = false;
  bool layer = false;
  std::size_t samples = 0;  // observations behind the value (0 = n/a)
};

/// Every metric and correctness check of one run.  Workloads add to it; main
/// prints it and writes the result JSON.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              Better better, double bound, std::size_t samples = 0);
  void metric_abs(const std::string& name, double value, const std::string& unit,
                  Better better, double bound_abs, std::size_t samples = 0);
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0);

  /// Records a correctness gate; any failed gate makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  bool correct() const;
  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }

  void print(std::FILE* out) const;
  bool write_json(const std::string& path, const Options& options) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, MetricValue> metrics_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of the process so far (getrusage ru_maxrss).
double peak_rss_mb();

/// Logs one finished phase to stderr ("phase <name> <s> s, peak rss <MB>"),
/// so a slow or memory-hungry phase is visible without a profiler.
void log_phase(const char* name, double seconds);

/// Logs the repeated measurements behind one reported median to stderr,
/// with their median and quartile spread.
void log_repeats(const char* name, const std::vector<double>& values);

/// Phase timer for the set-up breakdown (generate / train / preload).
struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double preload_s = 0.0;
  double total_s = 0.0;
};

/// Runs `setup` `repeats` times (each from scratch, outputs of the last kept
/// by the callee) and reports setup_s as the median total plus the median
/// per-phase breakdown.
void measure_setup(const Options& options, Report& report,
                   const std::function<SetupTimes()>& setup);

// ---------------------------------------------------------------------------
// Seeded inputs

/// Component ids of job j are j * kComponentsPerJob + node index.
inline constexpr std::int64_t kComponentsPerJob = 1000;

/// Deterministic per-(seed, salt...) stream seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// One generated job of `nodes` LAMMPS nodes.  Nodes are split into groups
/// of `group` nodes; group g carries Table-2 configuration (job_id + g) mod 10
/// on `anomalous_per_group` evenly spaced nodes, so jobs and groups rotate
/// through the Table-2 anomalies.  The seed varies the generated telemetry,
/// never the anomaly mix, so seeds present comparable work.
telemetry::JobTelemetry make_job(std::int64_t job_id, std::size_t nodes,
                                 double duration_s, std::uint64_t seed,
                                 std::size_t group, std::size_t anomalous_per_group);

/// One SampleBatch per tick in [first_tick, end_tick): row t of every node.
std::vector<stream::SampleBatch> encode_batches(const telemetry::JobTelemetry& job,
                                                std::size_t first_tick,
                                                std::size_t end_tick);

/// Adds the 32 training jobs (4 nodes x 300 s, one in four anomalous) to
/// `store` and trains the library's default model on them.  The returned
/// service serves `store` with the given explanation/cache settings.
deploy::AnalyticsService train_default_service(deploy::DsosStore& store,
                                               std::uint64_t seed, bool explain,
                                               std::size_t cache_capacity,
                                               SetupTimes& times);

// ---------------------------------------------------------------------------
// Workloads (stream_workloads.cpp, dashboard.cpp)

void run_fleet_shallow(const Options& options, Report& report, Tracer* tracer);
void run_deep_window(const Options& options, Report& report, Tracer* tracer);
void run_dashboard_ingest(const Options& options, Report& report, Tracer* tracer);

}  // namespace prodigy::bench::e2e
