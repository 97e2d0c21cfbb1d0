#include "nn/dense.hpp"

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace prodigy::nn {

namespace {

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

}  // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features, Activation act,
             util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      act_(act),
      weights_(in_features, out_features),
      bias_(out_features, 0.0),
      weight_grad_(in_features, out_features),
      bias_grad_(out_features, 0.0) {
  const double fan_in = static_cast<double>(in_features);
  const double fan_out = static_cast<double>(out_features);
  // He initialization suits ReLU; Xavier/Glorot suits saturating/linear units.
  const double scale = act == Activation::ReLU
                           ? std::sqrt(2.0 / fan_in)
                           : std::sqrt(2.0 / (fan_in + fan_out));
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_.data()[i] = rng.gaussian(0.0, scale);
  }
}

const tensor::Matrix& Dense::forward(const tensor::Matrix& input) {
  cached_input_ = {input.data(), input.rows(), input.cols()};
  tensor::kernels::dense_forward(input, weights_, bias_, fused(act_),
                                 cached_output_);
  return cached_output_;
}

tensor::Matrix Dense::forward_inference(const tensor::Matrix& input) const {
  tensor::Matrix out;
  forward_inference_into(input, out);
  return out;
}

void Dense::forward_inference_into(const tensor::Matrix& input,
                                   tensor::Matrix& out) const {
  tensor::kernels::dense_forward(input, weights_, bias_, fused(act_), out);
}

tensor::Matrix Dense::backward(const tensor::Matrix& grad_output) {
  tensor::Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void Dense::backward_into(const tensor::Matrix& grad_output,
                          tensor::Matrix& grad_input) {
  backward_params(grad_output);
  tensor::matmul_transposed_b_into(grad_pre_, weights_, grad_input);
}

void Dense::backward_params(const tensor::Matrix& grad_output) {
  grad_pre_.resize_for_overwrite(grad_output.rows(), grad_output.cols());
  std::copy(grad_output.data(), grad_output.data() + grad_output.size(),
            grad_pre_.data());
  apply_activation_gradient(act_, cached_output_, grad_pre_);

  // Accumulate parameter gradients in place: weight_grad_ += X^T * grad_pre
  // through the TN kernel's accumulate epilogue (no temporary), bias_grad_
  // through the order-preserving column-sum helper.  The cached input is a
  // borrowed view, so the raw-pointer kernel entry point is used directly.
  tensor::kernels::Epilogue accumulate;
  accumulate.accumulate = true;
  tensor::kernels::gemm(tensor::kernels::Layout::TN, in_, out_,
                        cached_input_.rows, cached_input_.data,
                        cached_input_.cols, grad_pre_.data(), grad_pre_.cols(),
                        weight_grad_.data(), weight_grad_.cols(), accumulate);
  tensor::kernels::column_sums_accumulate(grad_pre_, bias_grad_);
}

void Dense::zero_gradients() noexcept {
  std::fill(weight_grad_.storage().begin(), weight_grad_.storage().end(), 0.0);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0);
}

void Dense::save(util::BinaryWriter& writer) const {
  writer.write_u64(in_);
  writer.write_u64(out_);
  writer.write_string(to_string(act_));
  writer.write_f64_vector(weights_.storage());
  writer.write_f64_vector(bias_);
}

Dense Dense::load(util::BinaryReader& reader) {
  Dense layer;
  layer.in_ = reader.read_u64();
  layer.out_ = reader.read_u64();
  if (layer.in_ == 0 || layer.out_ == 0) {
    throw std::runtime_error("Dense::load: zero-sized layer (" +
                             std::to_string(layer.in_) + " x " +
                             std::to_string(layer.out_) +
                             "); stream is corrupt");
  }
  layer.act_ = activation_from_string(reader.read_string());
  // Nothing is shaped by the untrusted in/out until the weights they
  // describe have been read: check size == in * out without overflow, then
  // adopt the vector (resize_for_overwrite only sets the shape).
  std::vector<double> weights = reader.read_f64_vector();
  if (weights.size() % layer.in_ != 0 ||
      weights.size() / layer.in_ != layer.out_) {
    throw std::runtime_error("Dense::load: weight size mismatch");
  }
  layer.weights_.storage() = std::move(weights);
  layer.weights_.resize_for_overwrite(layer.in_, layer.out_);
  layer.bias_ = reader.read_f64_vector();
  if (layer.bias_.size() != layer.out_) {
    throw std::runtime_error("Dense::load: bias size mismatch");
  }
  layer.weight_grad_ = tensor::Matrix(layer.in_, layer.out_);
  layer.bias_grad_.assign(layer.out_, 0.0);
  return layer;
}

}  // namespace prodigy::nn
