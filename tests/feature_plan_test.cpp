// Served-feature plans: extraction under a FeaturePlan must write every
// planned feature bit-identically to full extraction (and 0.0 in every
// other slot), on the incremental path and on the full recompute, for the
// plan of a bundle trained with the library's default selection and for
// synthetic plans that isolate each skip.
#include "deploy/dsos.hpp"
#include "deploy/service.hpp"
#include "features/feature_matrix.hpp"
#include "features/incremental_profile.hpp"
#include "features/registry.hpp"
#include "pipeline/preprocess.hpp"
#include "stream/online_scorer.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace prodigy;
using features::FeaturePlan;

std::size_t index_of(const std::string& name) {
  const auto& defs = features::feature_registry();
  for (std::size_t f = 0; f < defs.size(); ++f) {
    if (defs[f].name == name) return f;
  }
  ADD_FAILURE() << "no feature " << name;
  return 0;
}

/// One 1,400-row LAMMPS node over the full metric catalog (gauges and
/// counters), optionally with NaN gaps that exercise the exact fallback.
tensor::Matrix replay_series(bool nan_gaps) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.job_id = 7;
  config.num_nodes = 1;
  config.duration_s = 1400;
  config.seed = 7;
  tensor::Matrix values = telemetry::generate_run(config).nodes.at(0).values;
  if (nan_gaps) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t r = 130; r < 134; ++r) values.at(r, 0) = nan;
    values.at(400, 5) = nan;
    for (std::size_t c = 0; c < values.cols(); c += 7) values.at(700, c) = nan;
    for (std::size_t r = 1000; r < 1010; ++r) values.at(r, 3) = nan;
  }
  return values;
}

std::vector<features::ColumnKind> catalog_kinds() {
  std::vector<features::ColumnKind> kinds;
  for (const auto& spec : telemetry::metric_catalog()) {
    kinds.push_back(spec.kind == telemetry::MetricKind::Counter
                        ? features::ColumnKind::kCounter
                        : features::ColumnKind::kGauge);
  }
  return kinds;
}

struct Shape {
  std::size_t window;
  std::size_t hop;
  std::size_t windows;
  bool nan_gaps;
};

std::string shape_name(const Shape& shape) {
  return std::to_string(shape.window) + "/" + std::to_string(shape.hop) +
         (shape.nan_gaps ? " with NaN gaps" : "");
}

/// The feature vector of every window of `shape`, by both extraction paths
/// under one plan: the incremental extractor fed hop deltas, and the full
/// recompute (streaming preprocess + extract_node_features) per window.
struct Extracted {
  std::vector<std::vector<double>> incremental;
  std::vector<std::vector<double>> full_recompute;
};

Extracted extract(const tensor::Matrix& series, const Shape& shape,
                  const FeaturePlan& plan) {
  const std::size_t cols = series.cols();
  features::IncrementalConfig config;
  config.window = shape.window;
  config.hop = shape.hop;
  features::IncrementalNodeExtractor extractor(cols, catalog_kinds(), config,
                                               plan);
  const auto preprocess = stream::streaming_preprocess_defaults();
  std::vector<telemetry::MetricKind> kinds;
  for (const auto& spec : telemetry::metric_catalog()) {
    kinds.push_back(spec.kind);
  }

  Extracted out;
  std::vector<double> got(cols * features::features_per_metric());
  for (std::size_t k = 0; k < shape.windows; ++k) {
    const std::size_t start = k * shape.hop;
    const tensor::Matrix delta =
        k == 0 ? series.slice_rows(0, shape.window)
               : series.slice_rows(start + shape.window - shape.hop, shape.hop);
    EXPECT_TRUE(extractor.absorb_and_extract(delta, got));
    out.incremental.push_back(got);
    out.full_recompute.push_back(features::extract_node_features(
        pipeline::preprocess_node(series.slice_rows(start, shape.window), kinds,
                                  preprocess),
        plan));
  }
  return out;
}

/// Every feature `plan` reads equals the full extraction bit for bit; every
/// other slot is 0.0.
void expect_planned(const std::vector<std::vector<double>>& got,
                    const std::vector<std::vector<double>>& full,
                    const FeaturePlan& plan, const std::string& where) {
  const std::size_t per_metric = features::features_per_metric();
  const auto& defs = features::feature_registry();
  ASSERT_EQ(got.size(), full.size()) << where;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].size(), full[k].size()) << where;
    for (std::size_t c = 0; c < got[k].size(); ++c) {
      const std::size_t m = c / per_metric;
      const std::size_t f = c % per_metric;
      const double want = plan.metric(m).wants(f) ? full[k][c] : 0.0;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k][c]),
                std::bit_cast<std::uint64_t>(want))
          << where << " window " << k << " metric " << m << " "
          << defs[f].name << ": " << got[k][c] << " vs " << want;
    }
  }
}

class FeaturePlanParityTest : public ::testing::Test {
 protected:
  static const std::vector<Shape>& shapes() {
    static const std::vector<Shape> all = {{64, 16, 40, false},
                                           {1024, 16, 12, false},
                                           {300, 7, 40, false},
                                           {64, 16, 60, true},
                                           {300, 16, 50, true}};
    return all;
  }

  /// Full extraction of every shape, computed once for the suite.
  static const std::vector<Extracted>& reference() {
    static const std::vector<Extracted> full = [] {
      std::vector<Extracted> out;
      for (const Shape& shape : shapes()) {
        out.push_back(extract(replay_series(shape.nan_gaps), shape, {}));
      }
      return out;
    }();
    return full;
  }

  static void expect_plan_parity(const FeaturePlan& plan) {
    for (std::size_t s = 0; s < shapes().size(); ++s) {
      const Shape& shape = shapes()[s];
      const Extracted got =
          extract(replay_series(shape.nan_gaps), shape, plan);
      const Extracted& full = reference()[s];
      // The full paths agree with each other (the incremental parity
      // suite's contract), so planned output can be held to either.
      expect_planned(full.incremental, full.full_recompute, {},
                     "full " + shape_name(shape));
      expect_planned(got.incremental, full.incremental, plan,
                     "incremental " + shape_name(shape));
      expect_planned(got.full_recompute, full.full_recompute, plan,
                     "full recompute " + shape_name(shape));
    }
  }

  /// Metric-major columns of `features` on every catalog metric.
  static FeaturePlan every_metric(const std::vector<std::size_t>& features) {
    std::vector<std::size_t> columns;
    for (std::size_t m = 0; m < telemetry::metric_count(); ++m) {
      for (const std::size_t f : features) {
        columns.push_back(m * features::features_per_metric() + f);
      }
    }
    return FeaturePlan(columns);
  }
};

TEST_F(FeaturePlanParityTest, TrainedDefaultBundlePlan) {
  // A bundle from the library's default selection (chi-square top 2,000 of
  // a labeled LAMMPS store); the VAE fit does not affect the columns, so
  // two epochs keep the test fast.
  deploy::DsosStore store;
  std::vector<std::int64_t> jobs;
  const auto memleak = hpas::table2_configurations().back();
  for (std::int64_t j = 1; j <= 8; ++j) {
    telemetry::RunConfig config;
    config.app = telemetry::application_by_name("LAMMPS");
    config.job_id = j;
    config.num_nodes = 4;
    config.duration_s = 200;
    config.seed = static_cast<std::uint64_t>(j);
    config.first_component_id = j * 100;
    if (j % 4 == 0) {
      config.anomaly = memleak;
      config.anomalous_nodes = {1, 3};
    }
    store.ingest(telemetry::generate_run(config));
    jobs.push_back(j);
  }
  deploy::TrainFromStoreOptions options;
  options.model.train.epochs = 2;
  const auto service = deploy::AnalyticsService::train_from_store(
      store, jobs, options, /*explain=*/false);
  const auto& columns = service.bundle().metadata.selected_columns;
  ASSERT_EQ(columns.size(), options.top_k_features);
  const FeaturePlan plan(columns);

  // The selection is partial where the skips act: some metric's
  // approximate entropy and some metric's spectral entropy go unread.
  std::size_t apen_read = 0, entropy_read = 0, spectrum_read = 0;
  for (std::size_t m = 0; m < telemetry::metric_count(); ++m) {
    apen_read += plan.metric(m).approximate_entropy ? 1 : 0;
    entropy_read += plan.metric(m).spectral_entropy ? 1 : 0;
    spectrum_read += plan.metric(m).spectrum ? 1 : 0;
  }
  EXPECT_LT(apen_read, telemetry::metric_count());
  EXPECT_LT(entropy_read, telemetry::metric_count());
  RecordProperty("metrics_reading_apen", std::to_string(apen_read));
  RecordProperty("metrics_reading_spectral_entropy",
                 std::to_string(entropy_read));
  RecordProperty("metrics_reading_spectrum", std::to_string(spectrum_read));
  expect_plan_parity(plan);
}

TEST_F(FeaturePlanParityTest, EmptyPlanReadsNothing) {
  const FeaturePlan plan(std::vector<std::size_t>{});
  EXPECT_FALSE(plan.metric(0).any);
  expect_plan_parity(plan);
}

TEST_F(FeaturePlanParityTest, EveryColumnPlanMatchesDefault) {
  std::vector<std::size_t> all(features::features_per_metric());
  for (std::size_t f = 0; f < all.size(); ++f) all[f] = f;
  const FeaturePlan plan = every_metric(all);
  EXPECT_FALSE(plan.metric(telemetry::metric_count()).any);
  EXPECT_TRUE(plan.metric(0).approximate_entropy);
  EXPECT_TRUE(plan.metric(0).spectral_entropy);
  expect_plan_parity(plan);
  expect_plan_parity(FeaturePlan{});
}

TEST_F(FeaturePlanParityTest, ApproximateEntropyOnly) {
  const FeaturePlan plan =
      every_metric({index_of("approximate_entropy_m2_r02")});
  EXPECT_TRUE(plan.metric(3).approximate_entropy);
  EXPECT_FALSE(plan.metric(3).spectrum);
  expect_plan_parity(plan);
}

TEST_F(FeaturePlanParityTest, SpectralEntropyOnly) {
  const FeaturePlan plan = every_metric({index_of("spectral_entropy")});
  EXPECT_TRUE(plan.metric(3).spectrum);
  EXPECT_TRUE(plan.metric(3).spectral_entropy);
  EXPECT_FALSE(plan.metric(3).approximate_entropy);
  expect_plan_parity(plan);
}

TEST_F(FeaturePlanParityTest, OneFeaturePerGroup) {
  // Metric m reads feature (m mod count) of every group, so across the
  // catalog each feature of each group is read alone somewhere; every
  // seventh metric reads nothing and keeps no state.
  const std::size_t per_metric = features::features_per_metric();
  std::vector<std::size_t> columns;
  for (std::size_t m = 0; m < telemetry::metric_count(); ++m) {
    if (m % 7 == 6) continue;
    for (const auto& group : features::feature_groups()) {
      columns.push_back(m * per_metric + group.first + m % group.count);
    }
  }
  const FeaturePlan plan(columns);
  EXPECT_FALSE(plan.metric(6).any);
  expect_plan_parity(plan);
}

TEST(FeaturePlanTest, DerivesFlagsFromColumns) {
  const std::size_t per_metric = features::features_per_metric();
  const std::size_t entropy = index_of("spectral_entropy");
  const std::size_t centroid = index_of("spectral_centroid");
  const std::size_t apen = index_of("approximate_entropy_m2_r02");
  const FeaturePlan plan(std::vector<std::size_t>{
      0 * per_metric + centroid, 1 * per_metric + entropy,
      2 * per_metric + apen});
  EXPECT_TRUE(plan.metric(0).spectrum);
  EXPECT_FALSE(plan.metric(0).spectral_entropy);
  EXPECT_TRUE(plan.metric(1).spectrum);
  EXPECT_TRUE(plan.metric(1).spectral_entropy);
  EXPECT_FALSE(plan.metric(1).approximate_entropy);
  EXPECT_FALSE(plan.metric(2).spectrum);
  EXPECT_TRUE(plan.metric(2).approximate_entropy);
  // Metrics past the highest planned column read nothing; the default plan
  // reads everything of every metric.
  EXPECT_FALSE(plan.metric(3).any);
  EXPECT_FALSE(plan.metric(1000).any);
  const FeaturePlan full;
  EXPECT_TRUE(full.metric(1000).any);
  EXPECT_TRUE(full.metric(1000).wants(apen));
}

TEST(FeaturePlanTest, HugeColumnIndexAllocatesNothingLarge) {
  // Column indices come from a loaded bundle: a corrupt one names a metric
  // far past any row's width.  The plan holds one entry per named metric,
  // and scoring then fails on the row's own column check.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 3;
  const std::size_t per_metric = features::features_per_metric();
  const FeaturePlan plan(std::vector<std::size_t>{huge, 5});
  EXPECT_TRUE(plan.metric(0).wants(5));
  EXPECT_FALSE(plan.metric(1).any);
  EXPECT_TRUE(plan.metric(huge / per_metric).wants(huge % per_metric));
  EXPECT_FALSE(plan.metric(huge / per_metric - 1).any);
}

}  // namespace
