// Simulated LDMS data collection: runs an application profile on a set of
// compute nodes and produces per-node multivariate time series exactly as the
// 1 Hz ldmsd samplers would report them — counters accumulate from a random
// boot offset, gauges carry sampling noise, and a small fraction of samples
// is lost in flight (NaN) as happens during real aggregation.
#pragma once

#include "hpas/anomalies.hpp"
#include "telemetry/app_profile.hpp"
#include "tensor/matrix.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prodigy::telemetry {

/// Raw telemetry of one compute node over one application run:
/// a (T x M) matrix over the metric catalog, plus identity and ground truth.
struct NodeSeries {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  std::string anomaly = "none";  // HPAS anomaly name, or "none"
  int label = 0;                 // ground truth: 1 = anomalous
  tensor::Matrix values;         // (timestamps x metric_catalog())
};

struct JobTelemetry {
  std::int64_t job_id = 0;
  std::string app;
  std::vector<NodeSeries> nodes;
};

struct RunConfig {
  AppProfile app;
  std::int64_t job_id = 1;
  std::size_t num_nodes = 4;
  double duration_s = 300.0;
  double node_ram_kb = 128.0 * 1024.0 * 1024.0;  // Eclipse: 128 GB
  std::uint64_t seed = 42;
  /// Probability that any individual reading is lost (NaN).
  double dropout = 0.003;
  /// Synthetic anomaly to inject (kind None = healthy run).
  hpas::AnomalySpec anomaly = hpas::healthy_spec();
  /// Which nodes receive the anomaly; empty = all nodes when anomalous.
  std::vector<std::size_t> anomalous_nodes;
  /// Organic (non-HPAS) I/O backend degradation in [0, 1]; models the
  /// Empire/Lustre slowdown of §6.2 — checkpoint phases stretch and stall.
  double io_degradation = 0.0;
  /// First component id assigned to this job's nodes.
  std::int64_t first_component_id = 0;
  /// Gradual healthy-baseline drift: every node's resource state ramps
  /// linearly toward a shifted operating point, reaching this relative
  /// magnitude at the end of the run (0.3 = ~30% shift on the drifting
  /// dimensions).  Models workload-mix / firmware / aging change — the NEW
  /// NORMAL, so drifted samples stay labeled healthy and every flag a
  /// detector raises on them counts as a false alarm.
  double baseline_drift = 0.0;
  /// Fraction of the run [0, 1) after which the injected anomaly activates
  /// (its intensity ramp is re-normalized to the remaining time, so e.g. a
  /// memleak starting at 0.5 still leaks to full size by run end).  0 keeps
  /// the HPAS default of anomalies active from the start.  Lets an anomaly
  /// overlap an already-drifted baseline.
  double anomaly_start_frac = 0.0;
};

/// Generates the full job telemetry for one run.  Throws
/// std::invalid_argument, naming the field, when the config asks for no
/// node, a duration that is not finite or below 1 s, a dropout outside
/// [0, 1], or an anomalous node index past num_nodes.
JobTelemetry generate_run(const RunConfig& config);

/// The node loop generate_run and gpu::generate_gpu_run share.  Forks one
/// stream per node from `job_rng` in node order before any node runs, then
/// runs synthesize(node, stream) for every node in one util::parallel_for
/// on the global pool, each task writing only its own slot.  A node's
/// bytes depend on its stream alone, so the result is the same at any pool
/// size; called from a pool worker, the nodes run inline.
std::vector<NodeSeries> synthesize_nodes(
    std::size_t num_nodes, util::Rng& job_rng,
    const std::function<NodeSeries(std::size_t node, util::Rng& rng)>& synthesize);

/// The config check both generators make before allocating; `fn` prefixes
/// the std::invalid_argument message.
void check_run_shape(const char* fn, std::size_t num_nodes, double duration_s,
                     double dropout, const std::vector<std::size_t>& anomalous_nodes);

}  // namespace prodigy::telemetry
