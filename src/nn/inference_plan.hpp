// Fused whole-network inference plans (the SwiftNetMLP idea adapted to the
// Prodigy scoring path): every Dense layer of a chain — for the VAE that is
// encoder -> mu head -> decoder — is packed ONCE into one contiguous,
// layout-optimized parameter buffer, and the whole network executes in a
// single cache-resident sweep per batch tile.  Activation intermediates live
// in a fixed per-thread tile (two ping-pong halves sized tile_rows x
// max_width) and never touch the heap after warmup.
//
// The plan runs in double precision and is bit-identical (EXPECT_EQ) to the
// layer-by-layer Dense/Mlp inference path: every output element is the same
// pure ascending-k mul-then-add sum the tensor kernel library commits (this
// translation unit is compiled with -ffp-contract=off exactly like
// tensor/kernels.cpp), so fused vs layerwise, any batch height, and any
// thread-pool size all round identically.  The m == 1 streaming shape takes
// a dedicated fused sweep with zero per-layer dispatch.
#pragma once

#include "nn/dense.hpp"
#include "tensor/matrix.hpp"

#include <cstddef>
#include <vector>

namespace prodigy::util {
class ThreadPool;
}

namespace prodigy::nn {

class Mlp;

class InferencePlan {
 public:
  /// Collects the layer chain, validating that consecutive dimensions line
  /// up, then packs the weights.  The referenced layers only need to stay
  /// alive until build() — the plan owns copies of every parameter.
  class Builder {
   public:
    /// Appends one dense layer; its in_features must equal the chain tail.
    Builder& add(const Dense& layer);
    /// Appends every layer of an Mlp in order.
    Builder& add(const Mlp& mlp);

    InferencePlan build() const;

   private:
    std::vector<const Dense*> layers_;
  };

  InferencePlan() = default;

  bool empty() const noexcept { return layers_.empty(); }
  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t output_dim() const noexcept { return output_dim_; }
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Runs the whole chain: out = L_n(...L_1(x)), resizing `out`
  /// (capacity-reusing, allocation-free after warmup).  Safe to call
  /// concurrently on a shared const plan; safe even when `out` aliases `x`
  /// (the input is snapshotted into a per-thread backup first), so the plan
  /// is immune to the aliasing hazard Mlp::forward_inference_into rejects.
  /// Batch tiles fan out across `pool` (nullptr = the global pool); results
  /// are bit-identical for any pool size.
  void run(const tensor::Matrix& x, tensor::Matrix& out,
           util::ThreadPool* pool = nullptr) const;

 private:
  /// One packed layer: `w_off` and `b_off` index its weights (row-major
  /// in x out, exactly Dense's layout) and bias inside the packed buffer.
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    Activation act = Activation::Linear;
    std::size_t w_off = 0;
    std::size_t b_off = 0;
  };

  void run_rows(const double* x, std::size_t rows, double* out,
                util::ThreadPool* pool) const;
  void run_single_row(const double* x, double* out) const;

  std::vector<Layer> layers_;
  std::size_t input_dim_ = 0;
  std::size_t output_dim_ = 0;
  std::size_t max_width_ = 0;  // widest activation (input or any layer out)

  // Weights and bias interleaved per layer in one contiguous buffer.
  std::vector<double> packed_;
};

}  // namespace prodigy::nn
