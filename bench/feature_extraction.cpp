// Feature-extraction engine microbenchmarks: the cold-path cost the
// SeriesProfile rewrite targets.  BM_ExtractWindow is the acceptance
// workload (64 metrics x 1024 samples, the size of one node's scoring
// window); BM_Group_* breaks a single series down by extractor group so
// regressions are attributable.  Set PRODIGY_METRICS_OUT=<path> to dump the
// metrics registry (stage histograms) after the run.
#include "bench_common.hpp"

#include "features/extractors.hpp"
#include "features/incremental_profile.hpp"
#include "features/kernels.hpp"
#include "features/registry.hpp"
#include "features/series_preprocess.hpp"
#include "features/series_profile.hpp"
#include "tensor/stats.hpp"
#include "util/metrics.hpp"

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace {

using namespace prodigy;
namespace kernels = features::kernels;

tensor::Matrix make_window(std::size_t samples, std::size_t metrics,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix values(samples, metrics);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = rng.gaussian(5.0, 2.0);
  }
  return values;
}

std::vector<double> make_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.gaussian(5.0, 2.0);
  return xs;
}

/// The hop and ApEn benchmarks' input: one long ribbon of three telemetry
/// series — a gauge random walk, a cumulative counter and a mostly-zero
/// spiky gauge — read at a moving offset, so every iteration sees a window
/// it has not seen before.  (A benchmark that replays one short input lets
/// the branch predictor learn it, and times a hot loop the stream never
/// runs.)  Iterations rotate through the three kinds.
struct Ribbon {
  static constexpr std::size_t kKinds = 3;
  static constexpr std::size_t kRows = std::size_t{1} << 18;
  std::array<features::ColumnKind, kKinds> kinds{
      features::ColumnKind::kGauge, features::ColumnKind::kCounter,
      features::ColumnKind::kGauge};
  std::array<tensor::Matrix, kKinds> raw;  // kRows x 1 each
  /// The cleaned series (the counter as first differences), contiguous.
  std::array<std::vector<double>, kKinds> clean;
};

const Ribbon& ribbon() {
  static const Ribbon r = [] {
    Ribbon out;
    util::Rng rng(17);
    for (auto& m : out.raw) m = tensor::Matrix(Ribbon::kRows, 1);
    double walk = 10.0;
    double counter = 1000.0;
    for (std::size_t i = 0; i < Ribbon::kRows; ++i) {
      walk += rng.gaussian(0.0, 0.5);
      counter += 2.0 + std::abs(rng.gaussian());
      out.raw[0].at(i, 0) = walk;
      out.raw[1].at(i, 0) = counter;
      out.raw[2].at(i, 0) =
          rng.uniform() < 0.05 ? 25.0 + rng.gaussian() : 0.0;
    }
    for (std::size_t k = 0; k < Ribbon::kKinds; ++k) {
      out.clean[k].assign(out.raw[k].data(),
                          out.raw[k].data() + Ribbon::kRows);
    }
    features::counter_to_rate_inplace(out.clean[1]);
    return out;
  }();
  return r;
}

/// The acceptance workload: full extraction of a 64-metric x 1024-sample
/// window (one node's scoring frame).
void BM_ExtractWindow(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const auto metrics = static_cast<std::size_t>(state.range(1));
  const tensor::Matrix values = make_window(samples, metrics, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_node_features(values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(metrics));
  state.counters["windows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExtractWindow)
    ->Args({1024, 64})
    ->Args({256, 64})
    ->Args({1024, 256})
    ->Unit(benchmark::kMillisecond);

/// One series through the whole registry, scratch reused across iterations
/// (the steady-state cost inside extract_node_features).
void BM_ComputeAllFeatures(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<double> out(features::features_per_metric());
  features::FeatureScratch scratch;
  for (auto _ : state) {
    features::compute_all_features(xs, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ComputeAllFeatures)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// Shared-profile construction alone (the one sort + one FFT + one fit +
/// the moment passes that every group reads from).
void BM_SeriesProfile(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 11);
  features::FeatureScratch scratch;
  for (auto _ : state) {
    auto profile = features::compute_series_profile(xs, scratch);
    benchmark::DoNotOptimize(&profile);
  }
}
BENCHMARK(BM_SeriesProfile)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// Per-hop cost of the incremental extractor for one metric column: absorb
/// `hop` new rows and emit all features for the sliding window.  Compare
/// against BM_FullRecomputeHop at the same (window, hop) — the incremental
/// engine's reason to exist is this per-hop delta.  One single-column
/// extractor per ribbon kind (no parallel_for fan-out); each iteration
/// advances the next one by a hop of fresh ribbon rows.
void BM_IncrementalHop(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  const Ribbon& rb = ribbon();
  features::IncrementalConfig config;
  config.window = window;
  config.hop = hop;
  std::vector<double> out(features::features_per_metric());
  std::array<std::unique_ptr<features::IncrementalNodeExtractor>,
             Ribbon::kKinds>
      extractors;
  for (std::size_t k = 0; k < Ribbon::kKinds; ++k) {
    extractors[k] = std::make_unique<features::IncrementalNodeExtractor>(
        1, std::vector<features::ColumnKind>{rb.kinds[k]}, config);
    extractors[k]->absorb_and_extract(rb.raw[k].slice_rows(0, window), out);
  }
  std::array<std::size_t, Ribbon::kKinds> at;
  at.fill(window);
  std::size_t k = 0;
  for (auto _ : state) {
    // Past the ribbon's end, keep feeding from its start: the window stays
    // full and the wrap is one discontinuity in 2^18 rows.
    if (at[k] + hop > Ribbon::kRows) at[k] = 0;
    extractors[k]->absorb_and_extract(rb.raw[k].slice_rows(at[k], hop), out);
    benchmark::DoNotOptimize(out.data());
    at[k] += hop;
    k = k + 1 == Ribbon::kKinds ? 0 : k + 1;
  }
  state.counters["hops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IncrementalHop)
    ->Args({64, 16})
    ->Args({64, 64})
    ->Args({256, 16})
    ->Args({1024, 16})
    ->Args({1024, 64})
    ->Args({1024, 1024})
    ->Args({4096, 16})
    ->Unit(benchmark::kMicrosecond);

/// The same per-hop workload through the batch path, on the same ribbon
/// windows: gather the column's window, clean it window-locally (gap
/// interpolation, counter rates) and run the full single-pass engine —
/// what the streaming scorer's kFullRecompute mode pays per column per hop.
/// The scorer routes the tumbling shapes (hop >= window) here: 64/64 and
/// 1024/1024 compare the two paths at them (EXPERIMENTS.md).
void BM_FullRecomputeHop(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto hop = static_cast<std::size_t>(state.range(1));
  const Ribbon& rb = ribbon();
  std::vector<double> out(features::features_per_metric());
  std::vector<double> series(window);
  features::FeatureScratch scratch;
  std::array<std::size_t, Ribbon::kKinds> at{};
  std::size_t k = 0;
  for (auto _ : state) {
    if (at[k] + window > Ribbon::kRows) at[k] = 0;
    const double* column = rb.raw[k].data() + at[k];
    std::copy(column, column + window, series.begin());
    features::linear_interpolate(series);
    if (rb.kinds[k] == features::ColumnKind::kCounter) {
      features::counter_to_rate_inplace(series);
    }
    features::compute_all_features(series, out, scratch);
    benchmark::DoNotOptimize(out.data());
    at[k] += hop;
    k = k + 1 == Ribbon::kKinds ? 0 : k + 1;
  }
  state.counters["hops_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullRecomputeHop)
    ->Args({64, 16})
    ->Args({64, 64})
    ->Args({256, 16})
    ->Args({1024, 16})
    ->Args({1024, 64})
    ->Args({1024, 1024})
    ->Args({4096, 16})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Per-kernel gauges: the SIMD kernels the registry groups route through.
// A build with -DPRODIGY_NO_SIMD=ON runs the same loops without vector
// hints, so comparing the two builds gives the vectorization win.

/// ApEn pair sweep (the entropy group's dominant cost) with its sort:
/// m = 2, r = 0.2 sigma — the registry's exact call shape — over n-point
/// windows of the cleaned ribbon that slide by the shipped hop (16 rows),
/// rotating kinds.  The per-window r (one O(n) stddev) is inside the timed
/// loop.
void BM_ApEnSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Ribbon& rb = ribbon();
  constexpr std::size_t kDim = 2;  // the registry's embedding dimension
  std::vector<std::uint32_t> lo(n - kDim + 1);
  std::vector<std::uint32_t> hi(n - kDim);
  kernels::ApEnScratch scratch;
  std::array<std::size_t, Ribbon::kKinds> at{};
  std::size_t k = 0;
  for (auto _ : state) {
    if (at[k] + n > Ribbon::kRows) at[k] = 0;
    const std::span<const double> xs(rb.clean[k].data() + at[k], n);
    const double r = 0.2 * tensor::stddev(xs);
    std::fill(lo.begin(), lo.end(), 1u);
    std::fill(hi.begin(), hi.end(), 1u);
    kernels::apen_match_counts(xs, kDim, r, lo, hi, scratch);
    benchmark::DoNotOptimize(lo.data());
    benchmark::DoNotOptimize(hi.data());
    at[k] += 16;
    k = k + 1 == Ribbon::kKinds ? 0 : k + 1;
  }
}
BENCHMARK(BM_ApEnSweep)
    ->Arg(256)  // the extractor's subsampled size
    ->Arg(1024)
    ->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

/// The per-emission linear-aggregate family on one window: sum/energy,
/// variance, |dx|, runs — the profile passes the kernels replaced.
void BM_AggregateKernels(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 37);
  for (auto _ : state) {
    const auto se = kernels::sum_energy(xs);
    const double mean = se.sum / static_cast<double>(xs.size());
    benchmark::DoNotOptimize(kernels::centered_sq_sum(xs, mean));
    benchmark::DoNotOptimize(kernels::abs_change_sum(xs));
    auto rs = kernels::run_stats(xs, mean);
    benchmark::DoNotOptimize(&rs);
  }
}
BENCHMARK(BM_AggregateKernels)
    ->Arg(1024)
    ->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

/// Trend + autocorrelation + nonlinearity reductions (the remaining lane
/// kernels the registry groups route through).
void BM_ReductionKernels(benchmark::State& state) {
  const auto xs = make_series(static_cast<std::size_t>(state.range(0)), 41);
  const auto se = kernels::sum_energy(xs);
  const double mean = se.sum / static_cast<double>(xs.size());
  const double var =
      kernels::centered_sq_sum(xs, mean) / static_cast<double>(xs.size());
  const double stddev = std::sqrt(var);
  for (auto _ : state) {
    auto t = kernels::trend_sums(
        xs, (static_cast<double>(xs.size()) - 1.0) / 2.0, mean);
    benchmark::DoNotOptimize(&t);
    for (const std::size_t lag : {1, 2, 5, 10, 20}) {
      benchmark::DoNotOptimize(kernels::centered_lag_mac(xs, mean, lag));
    }
    for (const std::size_t lag : {1, 2, 3}) {
      auto c = kernels::c3_tr_sums(xs, lag);
      benchmark::DoNotOptimize(&c);
    }
    auto zm = kernels::zmoment_sums(xs, mean, stddev);
    benchmark::DoNotOptimize(&zm);
  }
}
BENCHMARK(BM_ReductionKernels)
    ->Arg(1024)
    ->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

/// Per-group cost over an already-built profile: how the registry's time
/// splits across extractor families.
void BM_Group(benchmark::State& state, const features::FeatureGroup* group) {
  static const std::vector<double> xs = make_series(1024, 13);
  features::FeatureScratch scratch;
  const features::SeriesProfile profile =
      features::compute_series_profile(xs, scratch);
  std::vector<double> out(group->count, 0.0);
  for (auto _ : state) {
    group->fn(profile, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["features"] = static_cast<double>(group->count);
}

void register_group_benchmarks() {
  for (const auto& group : features::feature_groups()) {
    benchmark::RegisterBenchmark(("BM_Group/" + group.name).c_str(), BM_Group,
                                 &group)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_group_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("PRODIGY_METRICS_OUT")) {
    prodigy::util::MetricsRegistry::global().write_file(path);
    std::fprintf(stderr, "metrics -> %s\n", path);
  }
  return 0;
}
