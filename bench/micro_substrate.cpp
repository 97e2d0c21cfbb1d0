// Micro-benchmarks for the substrate kernels that determine whether the
// deployment's offline training and online scoring budgets (paper §4, §6.2)
// are attainable: GEMM, FFT, single feature extractors, chi-square scoring,
// VAE training epochs, parallel_for dispatch, the baselines' fit costs, and
// telemetry synthesis.
#include "bench_common.hpp"

#include "baselines/isolation_forest.hpp"
#include "baselines/lof.hpp"

#include "features/extractors.hpp"
#include "features/fft.hpp"
#include "features/registry.hpp"
#include "nn/trainer.hpp"
#include "telemetry/generator.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <thread>

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

// Every GEMM of one training step of the model the library ships and
// bench/e2e trains (core::ProdigyConfig's VAE at the 2000-feature default
// width: encoder 2000->64->32, 32->8 heads, decoder 8->32->64->2000), at the
// two batch heights of a 112-row fit (90 training rows: a 64-row and a
// 26-row step).  Per layer (in -> out) at batch height b: the forward NN
// (b x out, k = in), the weight-gradient TN (in x out, k = b) and the
// input-gradient NT (b x in, k = out), which the encoder's first layer skips.
// Args: layout (0 NN, 1 TN, 2 NT), m, n, k.
void GemmTrainingShapeArgs(benchmark::internal::Benchmark* bench) {
  const core::ProdigyConfig config;
  std::vector<std::pair<std::int64_t, std::int64_t>> layers;
  std::int64_t in = 2000;
  for (const auto units : config.vae.encoder_hidden) {
    layers.emplace_back(in, static_cast<std::int64_t>(units));
    in = static_cast<std::int64_t>(units);
  }
  layers.emplace_back(in, static_cast<std::int64_t>(config.vae.latent_dim));
  in = static_cast<std::int64_t>(config.vae.latent_dim);
  for (auto it = config.vae.encoder_hidden.rbegin();
       it != config.vae.encoder_hidden.rend(); ++it) {
    layers.emplace_back(in, static_cast<std::int64_t>(*it));
    in = static_cast<std::int64_t>(*it);
  }
  layers.emplace_back(in, 2000);
  for (const std::int64_t b : {26, 64}) {
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const auto [lin, lout] = layers[l];
      bench->Args({0, b, lout, lin});
      bench->Args({1, lin, lout, b});
      if (l > 0) bench->Args({2, b, lin, lout});
    }
  }
}

void BM_GemmTrainingShapes(benchmark::State& state) {
  const auto layout = static_cast<tensor::kernels::Layout>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto k = static_cast<std::size_t>(state.range(3));
  const std::size_t a_rows = layout == tensor::kernels::Layout::TN ? k : m;
  const std::size_t a_cols = layout == tensor::kernels::Layout::TN ? m : k;
  const bool nt = layout == tensor::kernels::Layout::NT;
  const auto a = random_matrix(a_rows, a_cols, 41);
  const auto b = random_matrix(nt ? n : k, nt ? k : n, 42);
  tensor::Matrix c;
  for (auto _ : state) {
    tensor::kernels::gemm(layout, a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  static const char* const kNames[] = {"NN", "TN", "NT"};
  state.SetLabel(kNames[state.range(0)]);
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(m * n * k) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTrainingShapes)
    ->Apply(GemmTrainingShapeArgs)
    ->ArgNames({"layout", "m", "n", "k"})
    ->Unit(benchmark::kMicrosecond);

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

// Training epochs at a given input width: each iteration runs kEpochs
// epochs of VariationalAutoencoder::fit on one VAE built outside the timed
// loop, so the time is the steps and validation passes, not the VAE's
// construction (263k Gaussian draws for the shipped model) or a detector's
// threshold pass; s_per_epoch divides it by the epochs run.  shipped:0 is
// the bench budget model ({64,24}/8, batch 32, no validation) on 256 rows;
// shipped:1 is the library default the tools and bench/e2e train
// (core::ProdigyConfig: {64,32}/8, batch 64, 20% validation) on 112 rows, so
// its epoch is the e2e fit's: a 64-row and a 26-row step, then the 22-row
// validation pass.
void BM_VaeEpoch(benchmark::State& state) {
  constexpr std::size_t kEpochs = 10;
  const auto width = static_cast<std::size_t>(state.range(0));
  const bool shipped = state.range(1) != 0;
  const auto X = random_matrix(shipped ? 112 : 256, width, 7);
  core::ProdigyConfig config;
  if (!shipped) config = bench::prodigy_config(bench::ModelOptions{});
  config.train.epochs = kEpochs;
  config.vae.input_dim = width;
  core::VariationalAutoencoder vae(config.vae);
  for (auto _ : state) {
    const nn::TrainHistory history = vae.fit(X, config.train);
    benchmark::DoNotOptimize(history.train_loss.data());
  }
  state.counters["s_per_epoch"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kEpochs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_VaeEpoch)
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({2000, 1})
    ->ArgNames({"width", "shipped"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Fork-join cost of util::parallel_for itself: an empty body over 4 or 8
// indices (one chunk each on a pool of two or more workers), called
// back-to-back or after a 1 ms idle gap, once every worker has gone back to
// sleep on the queue.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  const bool idle_gap = state.range(1) != 0;
  auto& pool = util::ThreadPool::global();
  for (auto _ : state) {
    if (idle_gap) {
      state.PauseTiming();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      state.ResumeTiming();
    }
    util::parallel_for(pool, 0, chunks,
                       [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1})
    ->Args({8, 1})
    ->ArgNames({"chunks", "idle_gap"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

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

// One 300-s LAMMPS run of 1, 4 or 32 nodes through telemetry::generate_run,
// which synthesizes the nodes concurrently on the global pool.  A sample is
// one node's reading of the whole metric catalog at one second.
void BM_GenerateRun(benchmark::State& state) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.duration_s = 300.0;
  config.num_nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::generate_run(config));
    ++config.seed;
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * config.duration_s *
          static_cast<double>(config.num_nodes),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateRun)
    ->Arg(1)
    ->Arg(4)
    ->Arg(32)
    ->ArgNames({"nodes"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
