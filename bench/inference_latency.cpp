// §6.2 inference-time measurement, as a google-benchmark binary.
//
// Paper: predicting all 18,947 Eclipse / 14,589 Volta test samples takes
// 3.28 s / 2.5 s on average (two 14-core Xeon E5-2680v4).  Here we measure
// the same batch-prediction path (scaler + VAE reconstruction + threshold)
// at several batch sizes, plus the per-stage costs that dominate the
// deployment's request latency (feature extraction, preprocessing).
// Set PRODIGY_METRICS_OUT=<path> to dump the process metrics registry
// (stage histograms, thread-pool counters) after the benchmarks finish --
// JSON when the path ends in .json, Prometheus text otherwise.
#include "bench_common.hpp"

#include "pipeline/preprocess.hpp"
#include "telemetry/generator.hpp"
#include "util/metrics.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

namespace {

using namespace prodigy;

struct InferenceFixture {
  InferenceFixture() {
    const std::size_t features = 256;
    util::Rng rng(3);
    tensor::Matrix train(512, features);
    for (std::size_t i = 0; i < train.size(); ++i) train.data()[i] = rng.uniform();

    bench::ModelOptions options;
    options.epochs = 40;  // weights just need to exist for latency timing
    detector = std::make_unique<core::ProdigyDetector>(bench::prodigy_config(options));
    detector->fit_healthy(train);

    probe = tensor::Matrix(20000, features);
    for (std::size_t i = 0; i < probe.size(); ++i) probe.data()[i] = rng.uniform();
  }

  std::unique_ptr<core::ProdigyDetector> detector;
  tensor::Matrix probe;
};

InferenceFixture& fixture() {
  static InferenceFixture instance;
  return instance;
}

/// Batch prediction latency (the paper's 18,947 / 14,589-sample batches).
void BM_BatchPredict(benchmark::State& state) {
  auto& f = fixture();
  const auto batch = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix X = f.probe.slice_rows(0, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector->predict(X));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["samples_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * batch),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchPredict)->Arg(64)->Arg(1024)->Arg(14589)->Arg(18947)
    ->Unit(benchmark::kMillisecond);

/// Scoring (reconstruction MAE) alone.
void BM_Score(benchmark::State& state) {
  auto& f = fixture();
  const tensor::Matrix X = f.probe.slice_rows(0, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector->score(X));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Score)->Unit(benchmark::kMillisecond);

/// The streaming-score hot shape: one 1024-feature row through the fused
/// VAE inference plan (encoder 1024->64->24, mu head 24->8, decoder
/// 8->24->64->1024 — the same architecture the stream scorer deploys).
/// Untrained weights: latency only depends on the shapes.
struct VaeLatencyFixture {
  VaeLatencyFixture() : vae(make_config()) {
    util::Rng rng(17);
    row = tensor::Matrix(1, 1024);
    for (std::size_t i = 0; i < row.size(); ++i) row.data()[i] = rng.uniform();
    batch = tensor::Matrix(64, 1024);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch.data()[i] = rng.uniform();
    }
  }

  static core::VaeConfig make_config() {
    core::VaeConfig config = bench::prodigy_config(bench::ModelOptions{}).vae;
    config.input_dim = 1024;
    return config;
  }

  core::VariationalAutoencoder vae;
  tensor::Matrix row;
  tensor::Matrix batch;
};

VaeLatencyFixture& vae_fixture() {
  static VaeLatencyFixture instance;
  return instance;
}

void BM_VaeScoreSingleRow(benchmark::State& state) {
  auto& f = vae_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.vae.reconstruction_error(f.row));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VaeScoreSingleRow)->Unit(benchmark::kMicrosecond);

void BM_VaeScoreBatch64(benchmark::State& state) {
  auto& f = vae_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.vae.reconstruction_error(f.batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_VaeScoreBatch64)->Unit(benchmark::kMicrosecond);

/// Preprocessing one node's raw frame (interpolate + diff + trim).
void BM_PreprocessNode(benchmark::State& state) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.duration_s = static_cast<double>(state.range(0));
  config.num_nodes = 1;
  const auto job = telemetry::generate_run(config);
  pipeline::PreprocessOptions options;
  options.trim_seconds = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline::preprocess_node(job.nodes[0].values, options));
  }
}
BENCHMARK(BM_PreprocessNode)->Arg(300)->Arg(1200)->Unit(benchmark::kMillisecond);

/// Full feature extraction for one node (the dominant request-path cost).
void BM_ExtractNodeFeatures(benchmark::State& state) {
  telemetry::RunConfig config;
  config.app = telemetry::application_by_name("LAMMPS");
  config.duration_s = static_cast<double>(state.range(0));
  config.num_nodes = 1;
  const auto job = telemetry::generate_run(config);
  pipeline::PreprocessOptions options;
  options.trim_seconds = 30;
  const auto prepared = pipeline::preprocess_node(job.nodes[0].values, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_node_features(prepared));
  }
}
BENCHMARK(BM_ExtractNodeFeatures)->Arg(300)->Arg(1200)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
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
