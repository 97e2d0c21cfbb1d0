// Sequential multi-layer perceptron: a stack of Dense layers with shared
// forward/backward plumbing.  The VAE encoder/decoder and the USAD
// autoencoders are built from this.
#pragma once

#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

#include <vector>

namespace prodigy::nn {

struct LayerSpec {
  std::size_t units = 0;
  Activation activation = Activation::ReLU;
};

class Mlp {
 public:
  Mlp() = default;

  /// Builds input_dim -> spec[0] -> spec[1] -> ... with fresh weights.
  Mlp(std::size_t input_dim, const std::vector<LayerSpec>& specs, util::Rng& rng);

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t output_dim() const noexcept {
    return layers_.empty() ? input_dim_ : layers_.back().out_features();
  }
  std::size_t layer_count() const noexcept { return layers_.size(); }
  Dense& layer(std::size_t i) { return layers_.at(i); }
  const Dense& layer(std::size_t i) const { return layers_.at(i); }

  /// Training forward pass; caches per-layer state for backward().  Returns
  /// a reference to the last layer's owned output (or to `input` itself for
  /// an empty stack); it stays valid until the next forward() and `input`
  /// must outlive the matching backward().
  const tensor::Matrix& forward(const tensor::Matrix& input);

  /// Inference forward pass without caching (const, thread-safe).
  tensor::Matrix forward_inference(const tensor::Matrix& input) const;

  /// Same, writing into a caller-owned buffer (capacity-reused, so repeated
  /// calls are allocation-free after warmup).  `out` must not alias `input`
  /// (throws std::invalid_argument — the kernels stream into `out` while the
  /// last layer still reads its input); use InferencePlan for in-place runs.
  void forward_inference_into(const tensor::Matrix& input,
                              tensor::Matrix& out) const;

  /// Backpropagates dL/d(output); accumulates layer gradients and returns
  /// dL/d(input).
  tensor::Matrix backward(const tensor::Matrix& grad_output);

  /// Same, writing dL/d(input) into a caller-owned buffer that must not
  /// alias `grad_output`, and every layer's parameter gradients as `write`
  /// says.
  void backward_into(const tensor::Matrix& grad_output,
                     tensor::Matrix& grad_input,
                     GradientWrite write = GradientWrite::Accumulate);

  /// Parameter-only backward: writes every layer's gradients exactly as
  /// backward_into() does but never forms dL/d(input), for a network whose
  /// input is data (nothing upstream reads that gradient).
  void backward_params(const tensor::Matrix& grad_output,
                       GradientWrite write = GradientWrite::Accumulate);

  void zero_gradients() noexcept;

  /// Registers every layer's parameters with the optimizer.
  void register_with(Optimizer& optimizer);

  std::size_t parameter_count() const noexcept;

  void save(util::BinaryWriter& writer) const;
  static Mlp load(util::BinaryReader& reader);

 private:
  // The backward chain; a null `grad_input` stops the first layer after its
  // parameter gradients.
  void backward_chain(const tensor::Matrix& grad_output,
                      tensor::Matrix* grad_input, GradientWrite write);

  std::size_t input_dim_ = 0;
  std::vector<Dense> layers_;
  tensor::Matrix grad_scratch_[2];  // backward ping-pong workspace
};

}  // namespace prodigy::nn
