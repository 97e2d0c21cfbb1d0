// Micro-benchmarks for the substrate kernels that determine whether the
// deployment's offline training and online scoring budgets (paper §4, §6.2)
// are attainable: GEMM, FFT, single feature extractors, chi-square scoring,
// one VAE training epoch, and the baselines' fit costs.
#include "bench_common.hpp"

#include "baselines/isolation_forest.hpp"
#include "baselines/lof.hpp"

#include "features/extractors.hpp"
#include "features/fft.hpp"
#include "features/registry.hpp"
#include "nn/trainer.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/metrics.hpp"

#include <benchmark/benchmark.h>

#include <cmath>

namespace {

using namespace prodigy;

tensor::Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.gaussian();
  return m;
}

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.gaussian();
  return xs;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(n * n * n) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Dense-forward: fused kernel vs a faithful replica of the pre-kernel-library
// scalar path (k-blocked axpy GEMM into a fresh matrix, separate bias and
// activation passes, and the two per-call caching copies Dense::forward used
// to make).  Same numerics, so the ratio is pure kernel/fusion/allocation win.

tensor::Matrix scalar_matmul_prepr(const tensor::Matrix& a, const tensor::Matrix& b) {
  constexpr std::size_t kBlock = 64;
  tensor::Matrix c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  const std::size_t inner = a.cols();
  for (std::size_t kk = 0; kk < inner; kk += kBlock) {
    const std::size_t k_hi = std::min(inner, kk + kBlock);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double* a_row = a.data() + r * inner;
      double* c_row = c.data() + r * n;
      for (std::size_t k = kk; k < k_hi; ++k) {
        const double a_val = a_row[k];
        const double* b_row = b.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
      }
    }
  }
  return c;
}

void BM_DenseForwardScalarBaseline(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out_features = static_cast<std::size_t>(state.range(2));
  const auto x = random_matrix(m, in, 21);
  const auto w = random_matrix(in, out_features, 22);
  const auto bias = random_series(out_features, 23);
  for (auto _ : state) {
    tensor::Matrix cached_input = x;  // pre-PR Dense cached by value
    tensor::Matrix out = scalar_matmul_prepr(x, w);
    tensor::add_row_vector(out, bias);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out.data()[i] < 0.0) out.data()[i] = 0.0;  // ReLU pass
    }
    tensor::Matrix cached_output = out;  // and cached the activation too
    benchmark::DoNotOptimize(cached_input.data());
    benchmark::DoNotOptimize(cached_output.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(m * in * out_features) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseForwardScalarBaseline)
    ->Args({32, 1024, 64})
    ->Args({1, 1024, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_DenseForwardFused(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out_features = static_cast<std::size_t>(state.range(2));
  const auto x = random_matrix(m, in, 21);
  const auto w = random_matrix(in, out_features, 22);
  const auto bias = random_series(out_features, 23);
  tensor::Matrix out;  // reused: allocation-free after the first iteration
  for (auto _ : state) {
    tensor::kernels::dense_forward(x, w, bias, tensor::kernels::FusedAct::ReLU,
                                   out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(m * in * out_features) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseForwardFused)
    ->Args({32, 1024, 64})
    ->Args({1, 1024, 64})
    ->Unit(benchmark::kMicrosecond);

// GEMM sweep over the actual VAE layer stack (encoder 1024->64->24, the two
// 24->8 heads, decoder 8->24->64->1024) at streaming (m=1), training-batch
// (m=32), and bulk-scoring (m=256) heights.  Per-shape GFLOP/s lands in the
// metrics registry so tooling can scrape kernel throughput alongside the
// benchmark output.
void GemmVaeShapeArgs(benchmark::internal::Benchmark* bench) {
  const core::ProdigyConfig config = bench::prodigy_config({});
  std::vector<std::pair<std::int64_t, std::int64_t>> layers;
  std::int64_t in = 1024;  // dataset width after top-k feature selection
  for (const auto units : config.vae.encoder_hidden) {
    layers.emplace_back(in, static_cast<std::int64_t>(units));
    in = static_cast<std::int64_t>(units);
  }
  layers.emplace_back(in, static_cast<std::int64_t>(config.vae.latent_dim));
  std::int64_t din = static_cast<std::int64_t>(config.vae.latent_dim);
  for (auto it = config.vae.encoder_hidden.rbegin();
       it != config.vae.encoder_hidden.rend(); ++it) {
    layers.emplace_back(din, static_cast<std::int64_t>(*it));
    din = static_cast<std::int64_t>(*it);
  }
  layers.emplace_back(din, 1024);
  for (const std::int64_t m : {1, 32, 256}) {
    for (const auto& [k, n] : layers) bench->Args({m, k, n});
  }
}

void BM_GemmVaeShapes(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto x = random_matrix(m, k, 31);
  const auto w = random_matrix(k, n, 32);
  tensor::Matrix out;
  util::Timer timer;
  for (auto _ : state) {
    tensor::matmul_into(x, w, out);
    benchmark::DoNotOptimize(out.data());
  }
  const double elapsed = timer.elapsed_seconds();
  const double flops = 2.0 * static_cast<double>(m * k * n);
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * flops / 1e9,
      benchmark::Counter::kIsRate);
  if (elapsed > 0.0) {
    util::MetricsRegistry::global()
        .gauge("prodigy_bench_gemm_gflops_m" + std::to_string(m) + "_k" +
               std::to_string(k) + "_n" + std::to_string(n))
        .update_max(static_cast<double>(state.iterations()) * flops /
                    (elapsed * 1e9));
  }
}
BENCHMARK(BM_GemmVaeShapes)->Apply(GemmVaeShapeArgs)->Unit(benchmark::kMicrosecond);

void BM_PowerSpectrum(benchmark::State& state) {
  const auto xs = random_series(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::power_spectrum(xs));
  }
}
BENCHMARK(BM_PowerSpectrum)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_ApproximateEntropy(benchmark::State& state) {
  const auto xs = random_series(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::approximate_entropy(xs, 2, 0.2));
  }
}
BENCHMARK(BM_ApproximateEntropy)->Arg(256)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_FullRegistryOneSeries(benchmark::State& state) {
  const auto xs = random_series(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::compute_all_features(xs));
  }
  state.counters["features"] = static_cast<double>(features::features_per_metric());
}
BENCHMARK(BM_FullRegistryOneSeries)->Arg(120)->Arg(1200)->Unit(benchmark::kMillisecond);

void BM_Chi2Scores(benchmark::State& state) {
  const auto X = [&] {
    auto m = random_matrix(static_cast<std::size_t>(state.range(0)), 1024, 6);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = std::abs(m.data()[i]);
    return m;
  }();
  std::vector<int> y(X.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 10 == 0 ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::chi2_scores(X, y));
  }
}
BENCHMARK(BM_Chi2Scores)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_VaeEpoch(benchmark::State& state) {
  const auto X = random_matrix(256, static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    state.PauseTiming();
    bench::ModelOptions options;
    options.epochs = 1;
    core::ProdigyDetector detector(bench::prodigy_config(options));
    state.ResumeTiming();
    detector.fit_healthy(X);
  }
}
BENCHMARK(BM_VaeEpoch)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_IsolationForestFit(benchmark::State& state) {
  const auto X = random_matrix(static_cast<std::size_t>(state.range(0)), 256, 8);
  std::vector<int> y(X.rows(), 0);
  for (auto _ : state) {
    baselines::IsolationForest forest;
    forest.fit(X, y);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_IsolationForestFit)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_LofFit(benchmark::State& state) {
  const auto X = random_matrix(static_cast<std::size_t>(state.range(0)), 256, 9);
  std::vector<int> y(X.rows(), 0);
  for (auto _ : state) {
    baselines::LocalOutlierFactor lof;
    lof.fit(X, y);
    benchmark::DoNotOptimize(lof);
  }
}
BENCHMARK(BM_LofFit)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_TelemetryGeneration(benchmark::State& state) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("HACC");
  config.duration_s = static_cast<double>(state.range(0));
  config.num_nodes = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::generate_run(config));
    ++config.seed;
  }
  state.counters["datapoints_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * config.duration_s * 4.0 *
          static_cast<double>(telemetry::metric_count()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TelemetryGeneration)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
