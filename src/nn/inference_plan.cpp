// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt), exactly like tensor/kernels.cpp: every output element
// must be the same pure ascending-k mul-then-add sum the layerwise Dense path
// commits, so fused-vs-layerwise EXPECT_EQ parity cannot depend on whether
// the compiler fused an FMA in one loop body and not the other.
#include "nn/inference_plan.hpp"

#include "nn/mlp.hpp"
#include "tensor/kernels.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#if defined(PRODIGY_NO_SIMD)
#define PRODIGY_SIMD
#else
#define PRODIGY_SIMD _Pragma("omp simd")
#endif

namespace prodigy::nn {

namespace {

// Rows per batch tile: one ping-pong tile half of the widest VAE layer
// (64 x 1024 doubles = 512 KB for the Tier-1 shape) stays L2-resident while
// the packed weights stream over it.
constexpr std::size_t kTileRows = 64;

tensor::kernels::FusedAct fused(Activation act) {
  switch (act) {
    case Activation::Linear:
      return tensor::kernels::FusedAct::None;
    case Activation::ReLU:
      return tensor::kernels::FusedAct::ReLU;
    case Activation::Tanh:
      return tensor::kernels::FusedAct::Tanh;
    case Activation::Sigmoid:
      return tensor::kernels::FusedAct::Sigmoid;
  }
  return tensor::kernels::FusedAct::None;
}

// Mirror of kernels' epilogue activation; must stay formula-identical (ReLU
// via `v < 0 ? 0 : v` so NaN propagates) for the bit-exactness contract.
inline double activate(Activation act, double v) {
  switch (act) {
    case Activation::Linear:
      return v;
    case Activation::ReLU:
      return v < 0.0 ? 0.0 : v;
    case Activation::Tanh:
      return std::tanh(v);
    case Activation::Sigmoid:
      return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

// Per-thread activation tile: two ping-pong halves of kTileRows x max_width
// doubles.  Grows once per thread to the largest plan seen, then every run
// is allocation-free.
double* tile_scratch(std::size_t doubles) {
  thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

InferencePlan::Builder& InferencePlan::Builder::add(const Dense& layer) {
  if (layer.in_features() == 0 || layer.out_features() == 0) {
    throw std::invalid_argument(
        "InferencePlan::Builder: layer has zero-sized dimensions (" +
        std::to_string(layer.in_features()) + " x " +
        std::to_string(layer.out_features()) + ")");
  }
  if (!layers_.empty() &&
      layer.in_features() != layers_.back()->out_features()) {
    throw std::invalid_argument(
        "InferencePlan::Builder: layer input dim " +
        std::to_string(layer.in_features()) +
        " does not chain from previous output dim " +
        std::to_string(layers_.back()->out_features()));
  }
  layers_.push_back(&layer);
  return *this;
}

InferencePlan::Builder& InferencePlan::Builder::add(const Mlp& mlp) {
  for (std::size_t i = 0; i < mlp.layer_count(); ++i) add(mlp.layer(i));
  return *this;
}

InferencePlan InferencePlan::Builder::build() const {
  if (layers_.empty()) {
    throw std::invalid_argument("InferencePlan::Builder: no layers added");
  }
  InferencePlan plan;
  plan.input_dim_ = layers_.front()->in_features();
  plan.output_dim_ = layers_.back()->out_features();
  plan.max_width_ = plan.input_dim_;
  plan.layers_.reserve(layers_.size());

  // Weights then bias, contiguous per layer, one buffer for the chain.
  for (const Dense* dense : layers_) {
    Layer layer;
    layer.in = dense->in_features();
    layer.out = dense->out_features();
    layer.act = dense->activation();
    const double* weights = dense->weights().data();
    const double* bias = dense->bias().data();
    layer.w_off = plan.packed_.size();
    plan.packed_.insert(plan.packed_.end(), weights,
                        weights + layer.in * layer.out);
    layer.b_off = plan.packed_.size();
    plan.packed_.insert(plan.packed_.end(), bias, bias + layer.out);
    plan.max_width_ = std::max(plan.max_width_, layer.out);
    plan.layers_.push_back(layer);
  }
  return plan;
}

// Fused m == 1 streaming sweep: every layer's output element is the pure
// ascending-k axpy sum committed once through the bias+activation epilogue —
// numerically the exact loop gemm_single_row runs, minus all per-layer
// dispatch, shape checks, and Matrix plumbing.  Like gemm_single_row, the
// accumulators live in a chunk-local stack buffer: the compiler can prove it
// never aliases the weight stream (a heap destination would force reload
// checks inside the axpy), and a chunk stays L1-resident for wide layers.
void InferencePlan::run_single_row(const double* x, double* out) const {
  constexpr std::size_t kChunk = 256;
  double* scratch = tile_scratch(2 * max_width_);
  double* ping = scratch;
  double* pong = scratch + max_width_;
  const double* cur = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    double* dst = last ? out : (l % 2 == 0 ? ping : pong);
    const double* w = packed_.data() + layer.w_off;
    const double* bias = packed_.data() + layer.b_off;
    const std::size_t n = layer.out;
    for (std::size_t j0 = 0; j0 < n; j0 += kChunk) {
      const std::size_t width = std::min(n - j0, kChunk);
      double buf[kChunk];
      PRODIGY_SIMD
      for (std::size_t jj = 0; jj < width; ++jj) buf[jj] = 0.0;
      for (std::size_t kk = 0; kk < layer.in; ++kk) {
        const double av = cur[kk];
        const double* wrow = w + kk * n + j0;
        PRODIGY_SIMD
        for (std::size_t jj = 0; jj < width; ++jj) buf[jj] += av * wrow[jj];
      }
      const double* brow = bias + j0;
      double* drow = dst + j0;
      switch (layer.act) {
        case Activation::Linear:
          PRODIGY_SIMD
          for (std::size_t jj = 0; jj < width; ++jj) drow[jj] = buf[jj] + brow[jj];
          break;
        case Activation::ReLU:
          PRODIGY_SIMD
          for (std::size_t jj = 0; jj < width; ++jj) {
            const double v = buf[jj] + brow[jj];
            drow[jj] = v < 0.0 ? 0.0 : v;
          }
          break;
        default:
          for (std::size_t jj = 0; jj < width; ++jj) {
            drow[jj] = activate(layer.act, buf[jj] + brow[jj]);
          }
          break;
      }
    }
    cur = dst;
  }
}

// One tile of up to kTileRows rows through the whole chain.  Each layer is a
// raw NN GEMM over the packed weights with the fused bias+activation
// epilogue; intermediates ping-pong between the two tile halves.
void InferencePlan::run_rows(const double* x, std::size_t rows, double* out,
                             util::ThreadPool* pool) const {
  if (rows == 1) {
    run_single_row(x, out);
    return;
  }
  double* scratch = tile_scratch(2 * kTileRows * max_width_);
  double* ping = scratch;
  double* pong = scratch + kTileRows * max_width_;
  const double* cur = x;
  std::size_t ld = input_dim_;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    double* dst = last ? out : (l % 2 == 0 ? ping : pong);
    tensor::kernels::Epilogue ep;
    ep.bias = packed_.data() + layer.b_off;
    ep.act = fused(layer.act);
    tensor::kernels::gemm(tensor::kernels::Layout::NN, rows, layer.out,
                          layer.in, cur, ld, packed_.data() + layer.w_off,
                          layer.out, dst, layer.out, ep, pool);
    cur = dst;
    ld = layer.out;
  }
}

void InferencePlan::run(const tensor::Matrix& x, tensor::Matrix& out,
                        util::ThreadPool* pool) const {
  if (layers_.empty()) {
    throw std::logic_error("InferencePlan::run: empty plan (nothing built)");
  }
  if (x.cols() != input_dim_) {
    throw std::invalid_argument("InferencePlan::run: input has " +
                                std::to_string(x.cols()) +
                                " columns, plan expects " +
                                std::to_string(input_dim_));
  }
  // Alias immunity by construction: if the caller hands the same Matrix as
  // input and output, snapshot the input into a per-thread backup before the
  // resize below can disturb it.
  const tensor::Matrix* src = &x;
  if (&x == &out) {
    thread_local tensor::Matrix alias_backup;
    alias_backup = x;
    src = &alias_backup;
  }
  out.resize_for_overwrite(src->rows(), output_dim_);
  const std::size_t rows = src->rows();
  if (rows == 0) return;

  util::ThreadPool& tp = pool != nullptr ? *pool : util::ThreadPool::global();
  const std::size_t tiles = (rows + kTileRows - 1) / kTileRows;
  auto run_tile = [&](std::size_t t) {
    const std::size_t r0 = t * kTileRows;
    const std::size_t m = std::min(kTileRows, rows - r0);
    const double* in = src->data() + r0 * input_dim_;
    double* dst = out.data() + r0 * output_dim_;
    // Inside a tile fan-out each task must stay single-threaded-in: the
    // nested gemm still receives the pool, but parallel_for runs nested
    // ranges inline on workers, and bits are pool-size-invariant anyway.
    run_rows(in, m, dst, &tp);
  };
  if (tiles <= 1 || tp.size() <= 1) {
    for (std::size_t t = 0; t < tiles; ++t) run_tile(t);
  } else {
    // Tile banding: every output element is produced by exactly one task
    // with the same per-element sum order, so any pool size gives the same
    // bits (same argument as the kernel library's row banding).
    util::parallel_for(tp, 0, tiles, run_tile, 1);
  }
}

}  // namespace prodigy::nn
