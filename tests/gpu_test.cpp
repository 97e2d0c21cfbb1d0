#include "telemetry/gpu.hpp"

#include "core/prodigy_detector.hpp"
#include "eval/metrics.hpp"
#include "features/chi_square.hpp"
#include "pipeline/data_pipeline.hpp"
#include "tensor/stats.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

namespace prodigy::telemetry::gpu {
namespace {

TEST(GpuCatalogTest, NamesUniqueAndDcgmScoped) {
  std::set<std::string> names;
  for (const auto& spec : gpu_metric_catalog()) {
    EXPECT_EQ(spec.sampler, Sampler::Dcgm);
    EXPECT_TRUE(names.insert(full_metric_name(spec)).second);
  }
  EXPECT_EQ(names.size(), gpu_metric_count());
  EXPECT_TRUE(names.contains("gpu_utilization::dcgm"));
  EXPECT_TRUE(names.contains("fb_used::dcgm"));
  EXPECT_TRUE(names.contains("xid_errors::dcgm"));
}

TEST(GpuCatalogTest, HeterogeneousLayoutConcatenatesCatalogs) {
  const auto names = heterogeneous_metric_names();
  const auto kinds = heterogeneous_metric_kinds();
  EXPECT_EQ(names.size(), metric_count() + gpu_metric_count());
  EXPECT_EQ(kinds.size(), names.size());
  EXPECT_EQ(names.front(), full_metric_name(metric_catalog().front()));
  EXPECT_EQ(names.back(), full_metric_name(gpu_metric_catalog().back()));
}

TEST(GpuCatalogTest, SynthesizedRatesAreSane) {
  GpuState state;
  state.util = 0.8;
  state.fb_used_frac = 0.5;
  util::Rng rng(1);
  const auto rates = synthesize_gpu_rates(state, 40960.0, rng);
  ASSERT_EQ(rates.size(), gpu_metric_count());
  for (const double r : rates) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
  }
  // fb_used + fb_free ~ total.
  std::size_t used_idx = 0, free_idx = 0;
  const auto& catalog = gpu_metric_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].name == "fb_used") used_idx = i;
    if (catalog[i].name == "fb_free") free_idx = i;
  }
  EXPECT_NEAR(rates[used_idx] + rates[free_idx], 40960.0, 1000.0);
}

TEST(GpuAppTest, ProfilesExistAndLookupWorks) {
  EXPECT_GE(gpu_applications().size(), 3u);
  EXPECT_EQ(gpu_application_by_name("LAMMPS-GPU").name, "LAMMPS-GPU");
  EXPECT_THROW(gpu_application_by_name("missing"), std::out_of_range);
  // GPU builds are lighter on the host CPU than the CPU-only profiles.
  EXPECT_LT(gpu_application_by_name("LAMMPS-GPU").host.cpu_intensity,
            application_by_name("LAMMPS").cpu_intensity);
}

TEST(GpuRunTest, ShapeAndDeterminism) {
  GpuRunConfig config;
  config.app = gpu_application_by_name("HACC-GPU");
  config.duration_s = 48;
  config.num_nodes = 2;
  config.dropout = 0.0;
  const auto a = generate_gpu_run(config);
  const auto b = generate_gpu_run(config);
  ASSERT_EQ(a.nodes.size(), 2u);
  EXPECT_EQ(a.nodes[0].values.cols(), metric_count() + gpu_metric_count());
  EXPECT_EQ(a.nodes[0].values.rows(), 48u);
  for (std::size_t i = 0; i < a.nodes[0].values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[0].values.data()[i], b.nodes[0].values.data()[i]);
  }
}

TEST(GpuRunTest, GpuCountersAccumulate) {
  GpuRunConfig config;
  config.app = gpu_application_by_name("sw4-GPU");
  config.duration_s = 64;
  config.num_nodes = 1;
  config.dropout = 0.0;
  const auto job = generate_gpu_run(config);
  const auto& catalog = gpu_metric_catalog();
  for (std::size_t m = 0; m < catalog.size(); ++m) {
    if (catalog[m].kind != MetricKind::Counter) continue;
    const auto series = job.nodes[0].values.column(metric_count() + m);
    for (std::size_t t = 1; t < series.size(); ++t) {
      EXPECT_GE(series[t], series[t - 1]) << catalog[m].name;
    }
  }
}

TEST(GpuRunTest, GpuMemleakFillsFramebuffer) {
  GpuRunConfig config;
  config.app = gpu_application_by_name("LAMMPS-GPU");
  config.duration_s = 128;
  config.num_nodes = 1;
  config.dropout = 0.0;
  config.anomaly = GpuAnomalyKind::GpuMemleak;
  const auto job = generate_gpu_run(config);
  EXPECT_EQ(job.nodes[0].label, 1);
  EXPECT_EQ(job.nodes[0].anomaly, "gpu_memleak");

  std::size_t fb_used_idx = metric_count();
  const auto& catalog = gpu_metric_catalog();
  for (std::size_t m = 0; m < catalog.size(); ++m) {
    if (catalog[m].name == "fb_used") fb_used_idx = metric_count() + m;
  }
  const auto series = job.nodes[0].values.column(fb_used_idx);
  const std::size_t q = series.size() / 4;
  const double head = tensor::mean(std::span(series).subspan(0, q));
  const double tail = tensor::mean(std::span(series).subspan(series.size() - q, q));
  EXPECT_GT(tail, head * 1.5);  // monotone fill
}

TEST(GpuRunTest, ThermalThrottleDropsClocksRaisesTemp) {
  GpuRunConfig config;
  config.app = gpu_application_by_name("HACC-GPU");
  config.duration_s = 96;
  config.num_nodes = 1;
  config.dropout = 0.0;
  const auto healthy = generate_gpu_run(config);
  config.anomaly = GpuAnomalyKind::ThermalThrottle;
  const auto throttled = generate_gpu_run(config);

  std::size_t clock_idx = 0, temp_idx = 0;
  const auto& catalog = gpu_metric_catalog();
  for (std::size_t m = 0; m < catalog.size(); ++m) {
    if (catalog[m].name == "sm_clock") clock_idx = metric_count() + m;
    if (catalog[m].name == "gpu_temp") temp_idx = metric_count() + m;
  }
  EXPECT_LT(tensor::mean(throttled.nodes[0].values.column(clock_idx)),
            tensor::mean(healthy.nodes[0].values.column(clock_idx)) * 0.9);
  EXPECT_GT(tensor::mean(throttled.nodes[0].values.column(temp_idx)),
            tensor::mean(healthy.nodes[0].values.column(temp_idx)) + 10.0);
}

// A main-thread call fans its nodes out over the global pool; the same call
// made inside a pool task runs them inline.  Both must give the same job.
TEST(GpuRunTest, ConcurrentNodesMatchInlineGeneration) {
  GpuRunConfig healthy;
  healthy.app = gpu_application_by_name("LAMMPS-GPU");
  healthy.duration_s = 96;
  healthy.seed = 11;
  GpuRunConfig leaking = healthy;
  leaking.anomaly = GpuAnomalyKind::GpuMemleak;
  GpuRunConfig throttled = healthy;
  throttled.app = gpu_application_by_name("HACC-GPU");
  throttled.anomaly = GpuAnomalyKind::ThermalThrottle;

  for (const std::size_t nodes : {1u, 3u, 8u}) {
    leaking.anomalous_nodes.clear();
    for (std::size_t n = 0; n < nodes; n += 2) leaking.anomalous_nodes.push_back(n);
    for (GpuRunConfig config : {healthy, leaking, throttled}) {
      config.num_nodes = nodes;
      SCOPED_TRACE(config.app.name + " " + to_string(config.anomaly) + " over " +
                   std::to_string(nodes) + " nodes");
      const JobTelemetry fanned = generate_gpu_run(config);
      JobTelemetry inline_job;
      util::ThreadPool::global()
          .submit([&] { inline_job = generate_gpu_run(config); })
          .get();
      ASSERT_EQ(fanned.nodes.size(), nodes);
      prodigy::testing::expect_same_job(fanned, inline_job);
    }
  }
}

TEST(GpuRunTest, RejectsZeroNodes) {
  GpuRunConfig config;
  config.num_nodes = 0;
  prodigy::testing::expect_rejected(generate_gpu_run, config, "num_nodes");
}

TEST(GpuRunTest, RejectsDurationBelowOneSecondOrNotFinite) {
  GpuRunConfig config;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double duration : {-5.0, 0.0, 0.5, kNaN, kInf}) {
    config.duration_s = duration;
    prodigy::testing::expect_rejected(generate_gpu_run, config, "duration_s");
  }
}

TEST(GpuRunTest, RejectsDropoutOutsideUnitInterval) {
  GpuRunConfig config;
  for (const double dropout : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    config.dropout = dropout;
    prodigy::testing::expect_rejected(generate_gpu_run, config, "dropout");
  }
}

TEST(GpuRunTest, RejectsAnomalousNodePastNumNodes) {
  GpuRunConfig config;
  config.num_nodes = 2;
  config.anomaly = GpuAnomalyKind::GpuMemleak;
  config.anomalous_nodes = {1, 2};
  prodigy::testing::expect_rejected(generate_gpu_run, config, "anomalous_nodes");
}

TEST(GpuPipelineTest, EndToEndJointModelDetectsGpuMemleak) {
  // Heterogeneous future-work flow: train a joint CPU+GPU model on healthy
  // GPU-app runs, then flag a device memory leak.
  std::vector<JobTelemetry> healthy_jobs;
  util::Rng rng(9);
  for (int run = 0; run < 6; ++run) {
    GpuRunConfig config;
    config.app = gpu_application_by_name("LAMMPS-GPU");
    config.job_id = run;
    config.num_nodes = 4;
    config.duration_s = 120;
    config.seed = rng();
    config.first_component_id = run * 10;
    healthy_jobs.push_back(generate_gpu_run(config));
  }
  // Instrumented runs with synthetic GPU anomalies feed the offline
  // chi-square selection (the Fig.-1 methodology applied to the partition).
  std::vector<JobTelemetry> selection_jobs = healthy_jobs;
  for (const auto kind : {GpuAnomalyKind::GpuMemleak, GpuAnomalyKind::ThermalThrottle}) {
    GpuRunConfig config;
    config.app = gpu_application_by_name("LAMMPS-GPU");
    config.job_id = 50 + static_cast<int>(kind);
    config.num_nodes = 4;
    config.duration_s = 120;
    config.seed = rng();
    config.anomaly = kind;
    config.first_component_id = config.job_id * 10;
    selection_jobs.push_back(generate_gpu_run(config));
  }

  pipeline::PreprocessOptions preprocess;
  preprocess.trim_seconds = 20;
  const auto names = heterogeneous_metric_names();
  const auto kinds = heterogeneous_metric_kinds();
  auto selection_data = pipeline::DataPipeline::build_from_jobs(
      selection_jobs, names, kinds, preprocess);
  pipeline::Scaler selection_scaler;
  selection_data.X = selection_scaler.fit_transform(selection_data.X);
  const auto selection = features::select_features_chi2(selection_data, 192);

  auto train = pipeline::DataPipeline::build_from_jobs(healthy_jobs, names, kinds,
                                                       preprocess);
  EXPECT_EQ(train.X.cols(),
            names.size() * features::features_per_metric());
  train = train.select_columns(selection.selected);
  pipeline::Scaler scaler;
  const auto train_scaled = scaler.fit_transform(train.X);

  core::ProdigyConfig model;
  model.vae.encoder_hidden = {32, 12};
  model.vae.latent_dim = 4;
  model.train.epochs = 120;
  model.train.batch_size = 16;
  model.train.learning_rate = 1e-3;
  model.train.validation_split = 0.0;
  model.train.early_stopping_patience = 0;
  core::ProdigyDetector detector(model);
  detector.fit_healthy(train_scaled);

  GpuRunConfig incident;
  incident.app = gpu_application_by_name("LAMMPS-GPU");
  incident.job_id = 99;
  incident.num_nodes = 4;
  incident.duration_s = 120;
  incident.seed = rng();
  incident.anomaly = GpuAnomalyKind::GpuMemleak;
  incident.anomalous_nodes = {0, 2};
  incident.first_component_id = 990;
  auto test = pipeline::DataPipeline::build_from_jobs(
      {generate_gpu_run(incident)}, names, kinds, preprocess);
  test = test.select_columns(selection.selected);
  const auto predictions = detector.predict(scaler.transform(test.X));
  EXPECT_EQ(predictions, (std::vector<int>{1, 0, 1, 0}));
}

}  // namespace
}  // namespace prodigy::telemetry::gpu
