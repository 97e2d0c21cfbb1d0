#include "telemetry/gpu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace prodigy::telemetry::gpu {

namespace {

enum GpuSynthId {
  kGpuUtil, kMemCopyUtil, kFbUsed, kFbFree, kPowerUsage, kGpuTemp, kSmClock,
  kMemClock, kPcieTxBytes, kPcieRxBytes, kNvlinkTxBytes, kXidErrors,
  kGpuSynthCount,
};

std::vector<MetricSpec> build_gpu_catalog() {
  using K = MetricKind;
  return {
      {"gpu_utilization", Sampler::Dcgm, K::Gauge, kGpuUtil},
      {"mem_copy_utilization", Sampler::Dcgm, K::Gauge, kMemCopyUtil},
      {"fb_used", Sampler::Dcgm, K::Gauge, kFbUsed},
      {"fb_free", Sampler::Dcgm, K::Gauge, kFbFree},
      {"power_usage", Sampler::Dcgm, K::Gauge, kPowerUsage},
      {"gpu_temp", Sampler::Dcgm, K::Gauge, kGpuTemp},
      {"sm_clock", Sampler::Dcgm, K::Gauge, kSmClock},
      {"memory_clock", Sampler::Dcgm, K::Gauge, kMemClock},
      {"pcie_tx_bytes", Sampler::Dcgm, K::Counter, kPcieTxBytes},
      {"pcie_rx_bytes", Sampler::Dcgm, K::Counter, kPcieRxBytes},
      {"nvlink_tx_bytes", Sampler::Dcgm, K::Counter, kNvlinkTxBytes},
      {"xid_errors", Sampler::Dcgm, K::Counter, kXidErrors},
  };
}

}  // namespace

const std::vector<MetricSpec>& gpu_metric_catalog() {
  static const std::vector<MetricSpec> catalog = build_gpu_catalog();
  return catalog;
}

std::size_t gpu_metric_count() { return gpu_metric_catalog().size(); }

std::vector<double> synthesize_gpu_rates(const GpuState& state, double fb_total_mb,
                                         util::Rng& rng) {
  auto jitter = [&rng](double value, double rel) {
    return std::max(0.0, value * (1.0 + rel * rng.gaussian()));
  };
  const double fb_used = std::clamp(state.fb_used_frac, 0.0, 1.0) * fb_total_mb;

  std::vector<double> rates(kGpuSynthCount, 0.0);
  rates[kGpuUtil] = std::clamp(jitter(100.0 * state.util, 0.05), 0.0, 100.0);
  rates[kMemCopyUtil] = std::clamp(jitter(100.0 * state.mem_util, 0.08), 0.0, 100.0);
  rates[kFbUsed] = jitter(fb_used, 0.005);
  rates[kFbFree] = jitter(std::max(0.0, fb_total_mb - fb_used), 0.005);
  rates[kPowerUsage] = jitter(state.power_w, 0.02);
  rates[kGpuTemp] = jitter(state.temperature_c, 0.01);
  rates[kSmClock] = jitter(state.sm_clock_mhz, 0.005);
  rates[kMemClock] = jitter(877.0 + 0.2 * state.sm_clock_mhz, 0.003);
  rates[kPcieTxBytes] = jitter(state.pcie_tx_mb * 1e6, 0.15);
  rates[kPcieRxBytes] = jitter(state.pcie_rx_mb * 1e6, 0.15);
  rates[kNvlinkTxBytes] = jitter(state.nvlink_mb * 1e6, 0.20);
  rates[kXidErrors] = state.xid_error_rate > 0.0 && rng.bernoulli(
                          std::min(1.0, state.xid_error_rate))
                          ? 1.0
                          : 0.0;

  const auto& catalog = gpu_metric_catalog();
  std::vector<double> out(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out[i] = rates[static_cast<std::size_t>(catalog[i].synth_id)];
  }
  return out;
}

namespace {

std::vector<GpuAppProfile> build_gpu_applications() {
  // Host profiles are lighter than their CPU-only builds: the device does
  // the heavy lifting, the host stages data and drives communication.
  auto host = [](const char* base, double cpu_scale) {
    AppProfile profile = application_by_name(base);
    profile.cpu_intensity *= cpu_scale;
    return profile;
  };
  return {
      {"LAMMPS-GPU", host("LAMMPS", 0.35), 0.90, 0.45, 0.35, 10.0},
      {"HACC-GPU", host("HACC", 0.30), 0.85, 0.70, 0.50, 25.0},
      {"sw4-GPU", host("sw4", 0.40), 0.80, 0.55, 0.45, 16.0},
  };
}

GpuState gpu_state_at(const GpuAppProfile& app, double t, double duration,
                      const RunVariation& variation, util::Rng& rng) {
  GpuState state;
  const double init_ramp = std::min(1.0, t / 30.0);
  const double term_ramp = std::min(1.0, std::max(0.0, (duration - t) / 20.0));
  const double envelope = init_ramp * term_ramp;

  // Kernel bursts: high occupancy with short staging gaps.
  const double two_pi = 2.0 * std::numbers::pi;
  const double phase = std::sin(two_pi * (t + variation.phase_offset) /
                                app.kernel_period_s);
  const double duty = phase > -0.6 ? 1.0 : 0.25;  // ~80% duty cycle
  const double activity = duty * envelope * variation.cpu_scale;

  state.util = std::clamp(app.gpu_intensity * activity * (1.0 + 0.04 * rng.gaussian()),
                          0.0, 1.0);
  state.mem_util = std::clamp(0.6 * state.util + 0.1, 0.0, 1.0);
  state.fb_used_frac = std::clamp(
      (0.08 + app.fb_footprint * variation.mem_scale) * (0.85 + 0.15 * init_ramp),
      0.0, 0.98);
  state.pcie_tx_mb = (2.0 + 800.0 * app.pcie_intensity * (duty < 1.0 ? 1.0 : 0.2)) *
                     variation.rate_scale;
  state.pcie_rx_mb = 0.6 * state.pcie_tx_mb;
  state.nvlink_mb = 300.0 * app.host.net_intensity * activity;
  state.power_w = 60.0 + 290.0 * state.util;
  state.temperature_c = 32.0 + 45.0 * state.util;
  state.sm_clock_mhz = 1410.0 - 30.0 * std::max(0.0, state.temperature_c - 70.0);
  return state;
}

void apply_gpu_anomaly(GpuAnomalyKind kind, double t_frac, GpuState& state,
                       util::Rng& rng) {
  switch (kind) {
    case GpuAnomalyKind::None:
      return;
    case GpuAnomalyKind::GpuMemleak: {
      // Device allocations never freed: framebuffer fills monotonically;
      // once full, allocation retries surface as Xid errors and stalls.
      const double leak = 0.55 * t_frac;
      state.fb_used_frac = std::min(0.99, state.fb_used_frac + leak);
      if (state.fb_used_frac > 0.95) {
        state.xid_error_rate = 0.2;
        state.util *= 0.7;  // kernels stall on allocation retries
      }
      state.pcie_rx_mb *= 1.0 + 0.3 * t_frac;  // eviction traffic
      return;
    }
    case GpuAnomalyKind::ThermalThrottle: {
      // Cooling failure: temperature climbs, the driver steps clocks down
      // hard, and sustained occupancy produces less throughput.
      state.temperature_c += 32.0 + 4.0 * rng.gaussian();
      const double over = std::max(0.0, state.temperature_c - 75.0);
      state.sm_clock_mhz = std::max(500.0, state.sm_clock_mhz - 45.0 * over);
      state.power_w *= 0.8;           // clock-capped board draws less
      state.util = std::min(1.0, state.util * 1.15);  // same work, longer kernels
      state.pcie_tx_mb *= 0.7;        // staging slows with the device
      return;
    }
  }
}

}  // namespace

const std::vector<GpuAppProfile>& gpu_applications() {
  static const std::vector<GpuAppProfile> apps = build_gpu_applications();
  return apps;
}

const GpuAppProfile& gpu_application_by_name(const std::string& name) {
  for (const auto& app : gpu_applications()) {
    if (app.name == name) return app;
  }
  throw std::out_of_range("gpu_application_by_name: unknown application " + name);
}

std::string to_string(GpuAnomalyKind kind) {
  switch (kind) {
    case GpuAnomalyKind::None: return "none";
    case GpuAnomalyKind::GpuMemleak: return "gpu_memleak";
    case GpuAnomalyKind::ThermalThrottle: return "thermal_throttle";
  }
  return "none";
}

std::vector<std::string> heterogeneous_metric_names() {
  std::vector<std::string> names;
  names.reserve(metric_count() + gpu_metric_count());
  for (const auto& spec : metric_catalog()) names.push_back(full_metric_name(spec));
  for (const auto& spec : gpu_metric_catalog()) {
    names.push_back(full_metric_name(spec));
  }
  return names;
}

std::vector<MetricKind> heterogeneous_metric_kinds() {
  std::vector<MetricKind> kinds;
  kinds.reserve(metric_count() + gpu_metric_count());
  for (const auto& spec : metric_catalog()) kinds.push_back(spec.kind);
  for (const auto& spec : gpu_metric_catalog()) kinds.push_back(spec.kind);
  return kinds;
}

JobTelemetry generate_gpu_run(const GpuRunConfig& config) {
  check_run_shape("generate_gpu_run", config.num_nodes, config.duration_s,
                  config.dropout, config.anomalous_nodes);
  const auto timestamps = static_cast<std::size_t>(config.duration_s);
  const std::size_t cpu_cols = metric_count();
  const std::size_t gpu_cols = gpu_metric_count();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  JobTelemetry job;
  job.job_id = config.job_id;
  job.app = config.app.name;

  util::Rng job_rng(config.seed ^ static_cast<std::uint64_t>(config.job_id) * 0x9e37ULL);
  const RunVariation run_variation = sample_run_variation(job_rng);
  const auto& gpu_catalog = gpu_metric_catalog();
  const auto& cpu_catalog = metric_catalog();

  job.nodes = synthesize_nodes(config.num_nodes, job_rng, [&](std::size_t node,
                                                              util::Rng& rng) {
    const bool anomalous =
        config.anomaly != GpuAnomalyKind::None &&
        (config.anomalous_nodes.empty() ||
         std::find(config.anomalous_nodes.begin(), config.anomalous_nodes.end(),
                   node) != config.anomalous_nodes.end());

    NodeSeries series;
    series.job_id = config.job_id;
    series.component_id = config.first_component_id + static_cast<std::int64_t>(node);
    series.app = config.app.name;
    series.label = anomalous ? 1 : 0;
    series.anomaly = anomalous ? to_string(config.anomaly) : "none";
    series.values = tensor::Matrix(timestamps, cpu_cols + gpu_cols);

    RunVariation node_variation = run_variation;
    node_variation.phase_offset += rng.uniform(0.0, 3.0);

    std::vector<double> counters(cpu_cols + gpu_cols, 0.0);
    for (std::size_t m = 0; m < cpu_cols; ++m) {
      if (cpu_catalog[m].kind == MetricKind::Counter) {
        counters[m] = rng.uniform(1e6, 5e8);
      }
    }
    for (std::size_t m = 0; m < gpu_cols; ++m) {
      if (gpu_catalog[m].kind == MetricKind::Counter) {
        counters[cpu_cols + m] = rng.uniform(1e8, 1e11);
      }
    }

    for (std::size_t t = 0; t < timestamps; ++t) {
      const double td = static_cast<double>(t);
      // Host side.
      ResourceState host =
          state_at(config.app.host, node_variation, td, config.duration_s, rng);
      const auto cpu_rates = synthesize_rates(host, config.node_ram_kb, rng);
      // Device side.
      GpuState device =
          gpu_state_at(config.app, td, config.duration_s, node_variation, rng);
      if (anomalous) {
        apply_gpu_anomaly(config.anomaly, td / config.duration_s, device, rng);
      }
      const auto gpu_rates = synthesize_gpu_rates(device, config.fb_total_mb, rng);

      auto emit = [&](std::size_t column, double rate, MetricKind kind) {
        double reported;
        if (kind == MetricKind::Counter) {
          counters[column] += std::max(0.0, rate);
          reported = counters[column];
        } else {
          reported = rate;
        }
        series.values(t, column) = rng.bernoulli(config.dropout) ? kNaN : reported;
      };
      for (std::size_t m = 0; m < cpu_cols; ++m) {
        emit(m, cpu_rates[m], cpu_catalog[m].kind);
      }
      for (std::size_t m = 0; m < gpu_cols; ++m) {
        emit(cpu_cols + m, gpu_rates[m], gpu_catalog[m].kind);
      }
    }
    return series;
  });
  return job;
}

}  // namespace prodigy::telemetry::gpu
