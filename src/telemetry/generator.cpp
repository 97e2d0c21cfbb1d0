#include "telemetry/generator.hpp"

#include "telemetry/metrics.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace prodigy::telemetry {

namespace {

bool node_is_anomalous(const RunConfig& config, std::size_t node) {
  if (!config.anomaly.is_anomalous()) return false;
  if (config.anomalous_nodes.empty()) return true;
  return std::find(config.anomalous_nodes.begin(), config.anomalous_nodes.end(),
                   node) != config.anomalous_nodes.end();
}

/// Stretches and stalls I/O to model a degraded Lustre backend.  Metadata
/// operations and buffered writeback degrade continuously; checkpoint bursts
/// stall outright.
void apply_io_degradation(double degradation, ResourceState& state) {
  if (degradation <= 0.0) return;
  // Background effect: every filesystem touch is slower.
  state.cpu_iowait += 0.06 * degradation;
  state.blocked_procs += 1.5 * degradation;
  state.io_rate *= 1.0 - 0.25 * degradation;
  state.page_fault_rate *= 1.0 - 0.15 * degradation;
  state.ctx_switch_rate *= 1.0 - 0.10 * degradation;

  const bool in_burst = state.cpu_iowait > 0.07 || state.io_rate > 5.0;
  if (in_burst) {
    // Checkpoint phases: throughput collapses, compute starves behind I/O.
    state.cpu_iowait += 0.35 * degradation;
    state.io_rate *= 1.0 - 0.5 * degradation;
    state.blocked_procs += 4.0 * degradation;
    state.cpu_user *= 1.0 - 0.3 * degradation;
    state.major_fault_rate += 5.0 * degradation;
  }
}

/// The drifting new normal: with progress in [0, 1] and `drift` the relative
/// end-of-run magnitude, the node slides toward a heavier operating point —
/// more resident memory, hotter caches, more scheduling churn — the way a
/// fleet's baseline creeps after a workload-mix or firmware change.  This is
/// NOT an anomaly: every perturbed dimension stays well inside plausible
/// healthy operation; it just no longer matches what a frozen model trained
/// on day-one telemetry considers normal.
void apply_baseline_drift(double drift, double progress, ResourceState& state) {
  if (drift <= 0.0) return;
  const double d = drift * progress;
  state.mem_used_frac = std::min(0.95, state.mem_used_frac * (1.0 + d));
  state.mem_anon_frac = std::min(0.85, state.mem_anon_frac * (1.0 + d));
  state.mem_cached_frac = std::min(0.9, state.mem_cached_frac * (1.0 + 0.5 * d));
  state.cpu_user = std::min(0.95, state.cpu_user * (1.0 + 0.4 * d));
  state.cache_pressure *= 1.0 + 0.6 * d;
  state.membw_pressure *= 1.0 + 0.6 * d;
  state.page_fault_rate *= 1.0 + 0.5 * d;
  state.ctx_switch_rate *= 1.0 + 0.3 * d;
  state.interrupt_rate *= 1.0 + 0.2 * d;
  state.net_rate *= 1.0 + 0.4 * d;
}

}  // namespace

std::vector<NodeSeries> synthesize_nodes(
    std::size_t num_nodes, util::Rng& job_rng,
    const std::function<NodeSeries(std::size_t node, util::Rng& rng)>& synthesize) {
  std::vector<util::Rng> streams;
  streams.reserve(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    streams.push_back(job_rng.fork());
  }
  std::vector<NodeSeries> nodes(num_nodes);
  util::parallel_for(0, num_nodes, [&](std::size_t node) {
    // Each task draws from its own copy: neighbouring streams share a cache
    // line, and drawing in place would bounce it between the workers.
    util::Rng rng = streams[node];
    nodes[node] = synthesize(node, rng);
  });
  return nodes;
}

void check_run_shape(const char* fn, std::size_t num_nodes, double duration_s,
                     double dropout, const std::vector<std::size_t>& anomalous_nodes) {
  const auto reject = [fn](const std::string& why) {
    throw std::invalid_argument(std::string(fn) + ": " + why);
  };
  if (num_nodes < 1) reject("num_nodes must be at least 1");
  if (!std::isfinite(duration_s) || duration_s < 1.0) {
    reject("duration_s must be finite and at least 1, got " +
           std::to_string(duration_s));
  }
  if (!(dropout >= 0.0 && dropout <= 1.0)) {
    reject("dropout must lie in [0, 1], got " + std::to_string(dropout));
  }
  for (const std::size_t node : anomalous_nodes) {
    if (node >= num_nodes) {
      reject("anomalous_nodes holds " + std::to_string(node) + ", past num_nodes " +
             std::to_string(num_nodes));
    }
  }
}

JobTelemetry generate_run(const RunConfig& config) {
  check_run_shape("generate_run", config.num_nodes, config.duration_s, config.dropout,
                  config.anomalous_nodes);
  const auto& catalog = metric_catalog();
  const auto timestamps = static_cast<std::size_t>(config.duration_s);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  JobTelemetry job;
  job.job_id = config.job_id;
  job.app = config.app.name;

  util::Rng job_rng(config.seed ^ static_cast<std::uint64_t>(config.job_id) * 0x9e37ULL);
  const RunVariation run_variation = sample_run_variation(job_rng);

  job.nodes = synthesize_nodes(config.num_nodes, job_rng, [&](std::size_t node,
                                                              util::Rng& rng) {
    NodeSeries series;
    series.job_id = config.job_id;
    series.component_id = config.first_component_id + static_cast<std::int64_t>(node);
    series.app = config.app.name;
    series.values = tensor::Matrix(timestamps, catalog.size());

    const bool anomalous = node_is_anomalous(config, node);
    const bool organic = config.io_degradation > 0.0;
    series.label = (anomalous || organic) ? 1 : 0;
    series.anomaly = anomalous ? to_string(config.anomaly.kind)
                               : (organic ? "io_degradation" : "none");

    std::unique_ptr<hpas::AnomalyInjector> injector;
    if (anomalous) injector = hpas::make_injector(config.anomaly, rng);

    // Per-node variation on top of the shared run variation (placement noise).
    RunVariation node_variation = run_variation;
    node_variation.cpu_scale *= std::max(0.6, 1.0 + 0.03 * rng.gaussian());
    node_variation.rate_scale *= std::max(0.6, 1.0 + 0.03 * rng.gaussian());
    node_variation.phase_offset += rng.uniform(0.0, 3.0);

    // Counters accumulate from a since-boot offset, like real /proc counters.
    std::vector<double> counters(catalog.size(), 0.0);
    for (std::size_t m = 0; m < catalog.size(); ++m) {
      if (catalog[m].kind == MetricKind::Counter) {
        counters[m] = rng.uniform(1e6, 5e8);
      }
    }

    const double anomaly_start =
        std::clamp(config.anomaly_start_frac, 0.0, 1.0 - 1e-9);
    for (std::size_t t = 0; t < timestamps; ++t) {
      const double t_frac = static_cast<double>(t) / config.duration_s;
      ResourceState state = state_at(config.app, node_variation,
                                     static_cast<double>(t), config.duration_s, rng);
      // Drift first (it is the new healthy baseline), then anomalies perturb
      // on top of it — the overlapping-anomaly scenario.
      apply_baseline_drift(config.baseline_drift, t_frac, state);
      if (injector && t_frac >= anomaly_start) {
        // Re-normalize progress so a late-starting anomaly still traverses
        // its full intensity ramp over the time it is active.
        injector->perturb((t_frac - anomaly_start) / (1.0 - anomaly_start),
                          state, rng);
      }
      apply_io_degradation(config.io_degradation, state);

      const auto rates = synthesize_rates(state, config.node_ram_kb, rng);
      for (std::size_t m = 0; m < catalog.size(); ++m) {
        double reported;
        if (catalog[m].kind == MetricKind::Counter) {
          counters[m] += std::max(0.0, rates[m]);
          reported = counters[m];
        } else {
          reported = rates[m];
        }
        series.values(t, m) =
            rng.bernoulli(config.dropout) ? kNaN : reported;
      }
    }
    return series;
  });
  return job;
}

}  // namespace prodigy::telemetry
