// Property tests over the telemetry substrate, parameterized across every
// Table-1 application and every Table-2 anomaly configuration.
#include "hpas/anomalies.hpp"
#include "telemetry/app_profile.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace prodigy::telemetry {
namespace {

std::vector<std::string> all_application_names() {
  std::vector<std::string> names;
  for (const auto& app : eclipse_applications()) names.push_back(app.name);
  for (const auto& app : volta_applications()) names.push_back(app.name);
  names.push_back(empire_application().name);
  return names;
}

class AppPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppPropertyTest, StateStaysPhysical) {
  const auto& app = application_by_name(GetParam());
  util::Rng rng(7);
  const RunVariation variation = sample_run_variation(rng);
  for (double t = 0.0; t < 400.0; t += 7.0) {
    const ResourceState state = state_at(app, variation, t, 400.0, rng);
    EXPECT_GE(state.cpu_user, 0.0);
    EXPECT_GE(state.cpu_system, 0.0);
    EXPECT_GE(state.cpu_iowait, 0.0);
    EXPECT_GT(state.mem_used_frac, 0.0);
    EXPECT_LT(state.mem_used_frac, 1.5);  // clamped later by synthesis
    EXPECT_GE(state.page_fault_rate, 0.0);
    EXPECT_GE(state.io_rate, 0.0);
    EXPECT_GE(state.net_rate, 0.0);
    EXPECT_GE(state.ctx_switch_rate, 0.0);
    EXPECT_GE(state.runnable_procs, 0.0);
  }
}

TEST_P(AppPropertyTest, GeneratedRunIsFiniteWithoutDropout) {
  RunConfig config;
  config.app = application_by_name(GetParam());
  config.duration_s = 64;
  config.num_nodes = 2;
  config.dropout = 0.0;
  const JobTelemetry job = generate_run(config);
  for (const auto& node : job.nodes) {
    for (std::size_t i = 0; i < node.values.size(); ++i) {
      EXPECT_TRUE(std::isfinite(node.values.data()[i]));
      EXPECT_GE(node.values.data()[i], 0.0);  // all catalog metrics are counts/kB
    }
  }
}

TEST_P(AppPropertyTest, GaugesVaryCountersAccumulate) {
  RunConfig config;
  config.app = application_by_name(GetParam());
  config.duration_s = 96;
  config.num_nodes = 1;
  config.dropout = 0.0;
  const JobTelemetry job = generate_run(config);
  const auto& catalog = metric_catalog();
  for (std::size_t m = 0; m < catalog.size(); ++m) {
    const auto series = job.nodes[0].values.column(m);
    if (catalog[m].kind == MetricKind::Counter) {
      EXPECT_GE(series.back(), series.front()) << full_metric_name(catalog[m]);
      EXPECT_GT(series.front(), 1e5) << "counters start from a boot offset";
    }
  }
}

TEST_P(AppPropertyTest, RunToRunVariabilityIsModest) {
  // Same input deck, different seeds: mean CPU user ticks vary but stay
  // within a plausible band (the paper cites up to 70% worst-case run-to-run
  // variability; our healthy profiles sit well under that).
  const auto user_idx = metric_index("user::procstat");
  std::vector<double> run_means;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunConfig config;
    config.app = application_by_name(GetParam());
    config.duration_s = 128;
    config.num_nodes = 1;
    config.dropout = 0.0;
    config.seed = seed;
    const JobTelemetry job = generate_run(config);
    const auto series = job.nodes[0].values.column(user_idx);
    run_means.push_back((series.back() - series.front()) /
                        static_cast<double>(series.size()));
  }
  const double mean = tensor::mean(run_means);
  for (const double m : run_means) {
    EXPECT_GT(m, mean * 0.6);
    EXPECT_LT(m, mean * 1.4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApplications, AppPropertyTest,
                         ::testing::ValuesIn(all_application_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// gtest describes a parameter that has no printer by its raw bytes, and that
// description is part of every case name CTest discovers.  AnomalySpec leaves
// four padding bytes after `kind` and its std::string points at its own
// buffer, so those bytes came from allocator leftovers and moved with ASLR:
// the same case got a new name in every build.  Table2Case carries the same
// fields in the same 48 bytes with every byte defined -- the hole is an
// explicit zero and the config string is stored inline.
struct Table2Case {
  hpas::AnomalyKind kind;
  std::int32_t zero = 0;
  double intensity;
  std::array<char, 32> config;

  hpas::AnomalySpec spec() const { return {kind, intensity, config.data()}; }
};
static_assert(std::is_trivially_copyable_v<Table2Case> &&
                  sizeof(Table2Case) == sizeof(hpas::AnomalyKind) +
                                            sizeof(std::int32_t) +
                                            sizeof(double) + 32,
              "Table2Case must have no padding");

std::vector<Table2Case> table2_cases() {
  std::vector<Table2Case> cases;
  for (const auto& spec : hpas::table2_configurations()) {
    Table2Case c{spec.kind, 0, spec.intensity, {}};
    if (spec.config.size() >= c.config.size()) {
      throw std::length_error("Table-2 config string too long: " + spec.config);
    }
    std::copy(spec.config.begin(), spec.config.end(), c.config.begin());
    cases.push_back(c);
  }
  return cases;
}

TEST(Table2CaseTest, RoundTripsEveryConfiguration) {
  const auto specs = hpas::table2_configurations();
  const auto cases = table2_cases();
  ASSERT_EQ(cases.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const hpas::AnomalySpec spec = cases[i].spec();
    EXPECT_EQ(spec.kind, specs[i].kind);
    EXPECT_EQ(spec.intensity, specs[i].intensity);
    EXPECT_EQ(spec.config, specs[i].config);
  }
}

class AnomalyPropertyTest : public ::testing::TestWithParam<Table2Case> {};

TEST_P(AnomalyPropertyTest, SlowdownIsAtLeastOne) {
  EXPECT_GE(hpas::expected_slowdown(GetParam().spec()), 1.0);
  EXPECT_LE(hpas::expected_slowdown(GetParam().spec()), 2.0);
}

TEST_P(AnomalyPropertyTest, InjectorKeepsStatePhysical) {
  util::Rng rng(3);
  auto injector = hpas::make_injector(GetParam().spec(), rng);
  ASSERT_NE(injector, nullptr);
  for (double t_frac = 0.0; t_frac < 1.0; t_frac += 0.05) {
    ResourceState state;
    injector->perturb(t_frac, state, rng);
    EXPECT_GE(state.page_fault_rate, 0.0);
    EXPECT_GE(state.ctx_switch_rate, 0.0);
    EXPECT_GE(state.net_rate, 0.0);
    EXPECT_GE(state.io_rate, 0.0);
    const auto rates = synthesize_rates(state, 1e8, rng);
    for (const double r : rates) {
      EXPECT_TRUE(std::isfinite(r));
      EXPECT_GE(r, 0.0);
    }
  }
}

TEST_P(AnomalyPropertyTest, AnomalousRunDiffersFromHealthy) {
  RunConfig config;
  config.app = application_by_name("sw4");
  config.duration_s = 96;
  config.num_nodes = 1;
  config.dropout = 0.0;
  config.seed = 5;
  const JobTelemetry healthy = generate_run(config);
  config.anomaly = GetParam().spec();
  const JobTelemetry anomalous = generate_run(config);

  const auto& catalog = metric_catalog();
  double total_relative_diff = 0.0;
  std::size_t counted = 0;
  for (std::size_t m = 0; m < metric_count(); ++m) {
    const auto h_series = healthy.nodes[0].values.column(m);
    const auto a_series = anomalous.nodes[0].values.column(m);
    // Counters carry a large since-boot offset; compare their growth.
    const bool counter = catalog[m].kind == MetricKind::Counter;
    const double h = counter ? h_series.back() - h_series.front()
                             : tensor::mean(h_series);
    const double a = counter ? a_series.back() - a_series.front()
                             : tensor::mean(a_series);
    if (h > 1e-9) {
      total_relative_diff += std::abs(a - h) / h;
      ++counted;
    }
  }
  EXPECT_GT(total_relative_diff / static_cast<double>(counted), 0.02)
      << "anomaly leaves no measurable signature";
}

INSTANTIATE_TEST_SUITE_P(
    Table2, AnomalyPropertyTest,
    ::testing::ValuesIn(table2_cases()),
    [](const ::testing::TestParamInfo<Table2Case>& info) {
      return hpas::to_string(info.param.kind) + "_" +
             std::to_string(info.index);
    });

}  // namespace
}  // namespace prodigy::telemetry
