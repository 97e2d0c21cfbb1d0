#include "telemetry/app_profile.hpp"
#include "telemetry/dataset_builder.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

namespace prodigy::telemetry {
namespace {

TEST(MetricCatalogTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : metric_catalog()) {
    EXPECT_TRUE(names.insert(full_metric_name(spec)).second)
        << "duplicate metric " << full_metric_name(spec);
  }
  EXPECT_EQ(names.size(), metric_count());
}

TEST(MetricCatalogTest, HasAllThreeSamplers) {
  std::set<Sampler> samplers;
  for (const auto& spec : metric_catalog()) samplers.insert(spec.sampler);
  EXPECT_EQ(samplers.size(), 3u);
}

TEST(MetricCatalogTest, PaperMetricsPresent) {
  // Metrics named in the paper's Fig. 7 explanation and §4.1.
  EXPECT_NO_THROW(metric_index("MemFree::meminfo"));
  EXPECT_NO_THROW(metric_index("MemAvailable::meminfo"));
  EXPECT_NO_THROW(metric_index("AnonPages::meminfo"));
  EXPECT_NO_THROW(metric_index("Active::meminfo"));
  EXPECT_NO_THROW(metric_index("pgrotated::vmstat"));
  EXPECT_NO_THROW(metric_index("pginodesteal::vmstat"));
  EXPECT_THROW(metric_index("bogus::meminfo"), std::out_of_range);
}

TEST(MetricCatalogTest, SynthesizeRatesCoversCatalog) {
  ResourceState state;
  util::Rng rng(1);
  const auto rates = synthesize_rates(state, 128.0 * 1024 * 1024, rng);
  ASSERT_EQ(rates.size(), metric_count());
  for (const double r : rates) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
  }
}

TEST(MetricCatalogTest, MemoryPressureShrinksMemFree) {
  util::Rng rng(2);
  ResourceState low, high;
  low.mem_used_frac = 0.2;
  high.mem_used_frac = 0.9;
  const auto idx = metric_index("MemFree::meminfo");
  const double free_low = synthesize_rates(low, 1e8, rng)[idx];
  const double free_high = synthesize_rates(high, 1e8, rng)[idx];
  EXPECT_GT(free_low, free_high * 3.0);
}

TEST(AppProfileTest, CatalogsNonEmptyAndNamed) {
  EXPECT_EQ(eclipse_applications().size(), 6u);   // Table 1 Eclipse apps
  EXPECT_EQ(volta_applications().size(), 11u);    // Table 1 Volta apps
  EXPECT_EQ(empire_application().name, "Empire");
}

TEST(AppProfileTest, LookupByName) {
  EXPECT_EQ(application_by_name("LAMMPS").name, "LAMMPS");
  EXPECT_EQ(application_by_name("Kripke").name, "Kripke");
  EXPECT_EQ(application_by_name("Empire").name, "Empire");
  EXPECT_THROW(application_by_name("nonexistent"), std::out_of_range);
}

TEST(AppProfileTest, InitializationRampSuppressesActivity) {
  util::Rng rng(3);
  const auto& app = application_by_name("LAMMPS");
  const RunVariation variation;
  const ResourceState at_start = state_at(app, variation, 0.0, 600.0, rng);
  const ResourceState at_middle = state_at(app, variation, 300.0, 600.0, rng);
  EXPECT_LT(at_start.cpu_user, at_middle.cpu_user);
}

TEST(AppProfileTest, RunVariationIsBounded) {
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const RunVariation v = sample_run_variation(rng);
    EXPECT_GT(v.cpu_scale, 0.4);
    EXPECT_LT(v.cpu_scale, 1.6);
    EXPECT_GE(v.phase_offset, 0.0);
  }
}

TEST(GeneratorTest, ShapesAndIdentity) {
  RunConfig config;
  config.app = application_by_name("sw4");
  config.job_id = 77;
  config.num_nodes = 3;
  config.duration_s = 64;
  config.first_component_id = 100;
  const JobTelemetry job = generate_run(config);
  EXPECT_EQ(job.job_id, 77);
  EXPECT_EQ(job.app, "sw4");
  ASSERT_EQ(job.nodes.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(job.nodes[n].component_id, 100 + static_cast<std::int64_t>(n));
    EXPECT_EQ(job.nodes[n].values.rows(), 64u);
    EXPECT_EQ(job.nodes[n].values.cols(), metric_count());
    EXPECT_EQ(job.nodes[n].label, 0);
    EXPECT_EQ(job.nodes[n].anomaly, "none");
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  RunConfig config;
  config.app = application_by_name("cg");
  config.duration_s = 32;
  config.seed = 99;
  config.dropout = 0.0;
  const JobTelemetry a = generate_run(config);
  const JobTelemetry b = generate_run(config);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes[0].values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[0].values.data()[i], b.nodes[0].values.data()[i]);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  RunConfig config;
  config.app = application_by_name("cg");
  config.duration_s = 32;
  config.dropout = 0.0;
  config.seed = 1;
  const JobTelemetry a = generate_run(config);
  config.seed = 2;
  const JobTelemetry b = generate_run(config);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.nodes[0].values.size(); ++i) {
    diff += std::abs(a.nodes[0].values.data()[i] - b.nodes[0].values.data()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(GeneratorTest, CountersAreMonotone) {
  RunConfig config;
  config.app = application_by_name("ft");
  config.duration_s = 48;
  config.dropout = 0.0;
  const JobTelemetry job = generate_run(config);
  const auto& catalog = metric_catalog();
  for (std::size_t m = 0; m < catalog.size(); ++m) {
    if (catalog[m].kind != MetricKind::Counter) continue;
    const auto series = job.nodes[0].values.column(m);
    for (std::size_t t = 1; t < series.size(); ++t) {
      EXPECT_GE(series[t], series[t - 1]) << full_metric_name(catalog[m]);
    }
  }
}

TEST(GeneratorTest, DropoutProducesNaNs) {
  RunConfig config;
  config.app = application_by_name("lu");
  config.duration_s = 128;
  config.dropout = 0.05;
  const JobTelemetry job = generate_run(config);
  std::size_t nans = 0;
  for (const auto& node : job.nodes) {
    for (std::size_t i = 0; i < node.values.size(); ++i) {
      nans += std::isnan(node.values.data()[i]) ? 1 : 0;
    }
  }
  EXPECT_GT(nans, 0u);
}

TEST(GeneratorTest, AnomalyMaskLabelsOnlySelectedNodes) {
  RunConfig config;
  config.app = application_by_name("LAMMPS");
  config.duration_s = 32;
  config.num_nodes = 4;
  config.anomaly = hpas::table2_configurations().front();
  config.anomalous_nodes = {1, 3};
  const JobTelemetry job = generate_run(config);
  EXPECT_EQ(job.nodes[0].label, 0);
  EXPECT_EQ(job.nodes[1].label, 1);
  EXPECT_EQ(job.nodes[2].label, 0);
  EXPECT_EQ(job.nodes[3].label, 1);
  EXPECT_EQ(job.nodes[1].anomaly, "cpuoccupy");
}

TEST(GeneratorTest, EmptyMaskMarksAllNodesAnomalous) {
  RunConfig config;
  config.app = application_by_name("LAMMPS");
  config.duration_s = 32;
  config.num_nodes = 2;
  config.anomaly = hpas::table2_configurations().back();
  const JobTelemetry job = generate_run(config);
  for (const auto& node : job.nodes) EXPECT_EQ(node.label, 1);
}

TEST(GeneratorTest, OrganicIoDegradationLabelsNodes) {
  RunConfig config;
  config.app = empire_application();
  config.duration_s = 64;
  config.io_degradation = 0.7;
  const JobTelemetry job = generate_run(config);
  for (const auto& node : job.nodes) {
    EXPECT_EQ(node.label, 1);
    EXPECT_EQ(node.anomaly, "io_degradation");
  }
}

// A main-thread call fans its nodes out over the global pool; the same call
// made inside a pool task runs them inline.  Both must give the same job.
TEST(GeneratorTest, ConcurrentNodesMatchInlineGeneration) {
  RunConfig healthy;
  healthy.app = application_by_name("LAMMPS");
  healthy.duration_s = 96;
  healthy.seed = 11;
  RunConfig drifting = healthy;
  drifting.anomaly = hpas::table2_configurations().front();
  drifting.anomaly_start_frac = 0.4;
  drifting.baseline_drift = 0.3;
  RunConfig organic = healthy;
  organic.app = empire_application();
  organic.io_degradation = 0.6;

  for (const std::size_t nodes : {1u, 3u, 8u}) {
    drifting.anomalous_nodes.clear();
    for (std::size_t n = 0; n < nodes; n += 2) drifting.anomalous_nodes.push_back(n);
    for (RunConfig config : {healthy, drifting, organic}) {
      config.num_nodes = nodes;
      SCOPED_TRACE(config.app.name + " " + to_string(config.anomaly.kind) + " over " +
                   std::to_string(nodes) + " nodes");
      const JobTelemetry fanned = generate_run(config);
      JobTelemetry inline_job;
      util::ThreadPool::global()
          .submit([&] { inline_job = generate_run(config); })
          .get();
      ASSERT_EQ(fanned.nodes.size(), nodes);
      prodigy::testing::expect_same_job(fanned, inline_job);
    }
  }
}

TEST(GeneratorTest, RejectsZeroNodes) {
  RunConfig config;
  config.num_nodes = 0;
  prodigy::testing::expect_rejected(generate_run, config, "num_nodes");
}

TEST(GeneratorTest, RejectsDurationBelowOneSecondOrNotFinite) {
  RunConfig config;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double duration : {-5.0, 0.0, 0.5, kNaN, kInf}) {
    config.duration_s = duration;
    prodigy::testing::expect_rejected(generate_run, config, "duration_s");
  }
}

TEST(GeneratorTest, RejectsDropoutOutsideUnitInterval) {
  RunConfig config;
  for (const double dropout : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    config.dropout = dropout;
    prodigy::testing::expect_rejected(generate_run, config, "dropout");
  }
}

TEST(GeneratorTest, RejectsAnomalousNodePastNumNodes) {
  RunConfig config;
  config.num_nodes = 2;
  config.anomaly = hpas::table2_configurations().front();
  config.anomalous_nodes = {1, 2};
  prodigy::testing::expect_rejected(generate_run, config, "anomalous_nodes");
}

TEST(DatasetBuilderTest, SystemsMatchPaper) {
  EXPECT_EQ(eclipse_system().name, "Eclipse");
  EXPECT_EQ(volta_system().name, "Volta");
  EXPECT_GT(eclipse_system().node_ram_kb, volta_system().node_ram_kb);
}

TEST(DatasetBuilderTest, RunCountAndSampleEstimate) {
  DatasetSpec spec;
  spec.system = eclipse_system();
  spec.healthy_runs_per_app = 2;
  spec.anomalous_runs_per_app = 1;
  EXPECT_EQ(run_count(spec), 3u * spec.system.apps.size());
  EXPECT_GT(spec.approx_samples(), 0u);
}

TEST(DatasetBuilderTest, StreamsExpectedRunsWithLabels) {
  DatasetSpec spec;
  spec.system = volta_system();
  spec.healthy_runs_per_app = 1;
  spec.anomalous_runs_per_app = 1;
  spec.duration_s = 24;
  std::size_t healthy_runs = 0, anomalous_runs = 0;
  std::set<std::int64_t> job_ids;
  for_each_run(spec, [&](const JobTelemetry& job) {
    EXPECT_TRUE(job_ids.insert(job.job_id).second);
    const bool anomalous = job.nodes.front().label == 1;
    (anomalous ? anomalous_runs : healthy_runs) += 1;
  });
  EXPECT_EQ(healthy_runs, spec.system.apps.size());
  EXPECT_EQ(anomalous_runs, spec.system.apps.size());
}

TEST(DatasetBuilderTest, PaperScaleApproximatesPublishedCounts) {
  // At scale = 1.0 the specs should be within 10% of the paper's sample
  // counts (Eclipse 24,566; Volta 20,915).
  const auto eclipse = eclipse_dataset_spec(1.0);
  const auto volta = volta_dataset_spec(1.0);
  EXPECT_NEAR(static_cast<double>(eclipse.approx_samples()), 24566.0, 2456.0);
  EXPECT_NEAR(static_cast<double>(volta.approx_samples()), 20915.0, 2091.0);
}

}  // namespace
}  // namespace prodigy::telemetry
