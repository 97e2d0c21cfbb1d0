// Fully-connected layer with manual backprop.
#pragma once

#include "nn/activation.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace prodigy::nn {

/// How a backward pass writes the parameter gradients: added to what the
/// gradient buffers hold (several backwards per step), or in their place
/// (a step's only backward, which then needs no zero_gradients() first).
/// Both give the same bits on zeroed buffers.
enum class GradientWrite { Accumulate, Overwrite };

class Dense {
 public:
  Dense() = default;

  /// Initializes weights with He (ReLU) or Xavier (otherwise) scaling.
  Dense(std::size_t in_features, std::size_t out_features, Activation act,
        util::Rng& rng);

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }
  Activation activation() const noexcept { return act_; }

  /// Training forward pass (fused GEMM + bias + activation) into an owned,
  /// capacity-reused output buffer; returns a reference to it.  The input is
  /// cached as a borrowed view, not a copy: the caller must keep `input`
  /// alive and unmoved until the matching backward() returns (Mlp guarantees
  /// this by chaining layer-owned outputs).  The returned reference is
  /// invalidated by the next forward() on this layer.
  const tensor::Matrix& forward(const tensor::Matrix& input);

  /// Forward pass without caching (inference path; const, thread-safe).
  tensor::Matrix forward_inference(const tensor::Matrix& input) const;

  /// Same, writing into a caller-owned buffer (resized with capacity reuse)
  /// so steady-state inference is allocation-free.
  void forward_inference_into(const tensor::Matrix& input,
                              tensor::Matrix& out) const;

  /// Given dL/d(output), accumulates weight/bias gradients in place and
  /// returns dL/d(input).  Must follow a forward() call with the matching
  /// batch.
  tensor::Matrix backward(const tensor::Matrix& grad_output);

  /// Same, writing dL/d(input) into a caller-owned buffer that must not
  /// alias `grad_output` (throws std::invalid_argument), and the parameter
  /// gradients as `write` says.
  void backward_into(const tensor::Matrix& grad_output,
                     tensor::Matrix& grad_input,
                     GradientWrite write = GradientWrite::Accumulate);

  /// Parameter-only backward: writes the same weight/bias gradients as
  /// backward_into() and stops there, skipping the dL/d(input) GEMM for a
  /// layer whose input gradient nobody reads (a network's first layer).
  void backward_params(const tensor::Matrix& grad_output,
                       GradientWrite write = GradientWrite::Accumulate);

  void zero_gradients() noexcept;

  tensor::Matrix& weights() noexcept { return weights_; }
  const tensor::Matrix& weights() const noexcept { return weights_; }
  std::vector<double>& bias() noexcept { return bias_; }
  const std::vector<double>& bias() const noexcept { return bias_; }
  tensor::Matrix& weight_grad() noexcept { return weight_grad_; }
  std::vector<double>& bias_grad() noexcept { return bias_grad_; }

  std::size_t parameter_count() const noexcept {
    return weights_.size() + bias_.size();
  }

  void save(util::BinaryWriter& writer) const;
  static Dense load(util::BinaryReader& reader);

 private:
  // Borrowed view of the training-forward input.  A copied Dense shares the
  // source's view (pointing at the original caller's buffer), which is safe
  // for the supported pattern of copying a layer and running inference on
  // the copy; backward() must only follow this object's own forward().
  struct InputView {
    const double* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
  };

  // The shared half of both backwards: writes the parameter gradients and
  // returns the pre-activation gradient it used (grad_output itself for a
  // linear layer, grad_pre_ otherwise).
  const tensor::Matrix& parameter_gradients(const tensor::Matrix& grad_output,
                                            GradientWrite write);

  std::size_t in_ = 0;
  std::size_t out_ = 0;
  Activation act_ = Activation::Linear;
  tensor::Matrix weights_;       // (in x out)
  std::vector<double> bias_;     // (out)
  tensor::Matrix weight_grad_;   // (in x out)
  std::vector<double> bias_grad_;

  InputView cached_input_;        // borrowed; valid until backward()
  tensor::Matrix cached_output_;  // owned post-activation workspace
  tensor::Matrix grad_pre_;       // pre-activation grad of a nonlinear layer
};

}  // namespace prodigy::nn
