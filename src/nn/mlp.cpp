#include "nn/mlp.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace prodigy::nn {

Mlp::Mlp(std::size_t input_dim, const std::vector<LayerSpec>& specs, util::Rng& rng)
    : input_dim_(input_dim) {
  if (input_dim == 0) throw std::invalid_argument("Mlp: input_dim must be > 0");
  std::size_t in = input_dim;
  layers_.reserve(specs.size());
  for (const auto& spec : specs) {
    if (spec.units == 0) throw std::invalid_argument("Mlp: layer units must be > 0");
    layers_.emplace_back(in, spec.units, spec.activation, rng);
    in = spec.units;
  }
}

const tensor::Matrix& Mlp::forward(const tensor::Matrix& input) {
  // Each layer writes into its own capacity-reused output buffer and keeps a
  // borrowed view of its input, so the chain allocates nothing after warmup.
  // Layer i's input is layer i-1's owned output, which stays stable through
  // backward().
  const tensor::Matrix* current = &input;
  for (auto& layer : layers_) current = &layer.forward(*current);
  return *current;
}

tensor::Matrix Mlp::forward_inference(const tensor::Matrix& input) const {
  tensor::Matrix out;
  forward_inference_into(input, out);
  return out;
}

void Mlp::forward_inference_into(const tensor::Matrix& input,
                                 tensor::Matrix& out) const {
  if (layers_.empty()) {
    out = input;
    return;
  }
  // No-alias contract: the last layer's GEMM reads `input` (single-layer
  // net) or a scratch buffer while streaming results into `out`; if they
  // were the same Matrix the kernel would read rows it already clobbered
  // (and the resize could move the storage mid-read).  Reject it loudly
  // instead of returning garbage.  InferencePlan::run is alias-immune by
  // construction and is the right entry point for in-place use.
  if (&input == &out) {
    throw std::invalid_argument(
        "Mlp::forward_inference_into: out must not alias input");
  }
  // Ping-pong between two per-thread scratch buffers; the last layer writes
  // straight into `out`.  thread_local keeps concurrent scoring of a shared
  // const model safe.  Callers can never hold references to these buffers,
  // so `input` cannot alias them.
  thread_local tensor::Matrix ping, pong;
  tensor::Matrix* scratch[2] = {&ping, &pong};
  const tensor::Matrix* current = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    tensor::Matrix* dst = i + 1 == layers_.size() ? &out : scratch[i % 2];
    layers_[i].forward_inference_into(*current, *dst);
    current = dst;
  }
}

tensor::Matrix Mlp::backward(const tensor::Matrix& grad_output) {
  tensor::Matrix grad_input;
  backward_into(grad_output, grad_input);
  return grad_input;
}

void Mlp::backward_into(const tensor::Matrix& grad_output,
                        tensor::Matrix& grad_input, GradientWrite write) {
  if (layers_.empty()) {
    grad_input = grad_output;
    return;
  }
  backward_chain(grad_output, &grad_input, write);
}

void Mlp::backward_params(const tensor::Matrix& grad_output,
                          GradientWrite write) {
  backward_chain(grad_output, nullptr, write);
}

void Mlp::backward_chain(const tensor::Matrix& grad_output,
                         tensor::Matrix* grad_input, GradientWrite write) {
  const tensor::Matrix* current = &grad_output;
  for (std::size_t step = 0; step < layers_.size(); ++step) {
    const std::size_t i = layers_.size() - 1 - step;
    if (i == 0 && grad_input == nullptr) {
      layers_[0].backward_params(*current, write);
      return;
    }
    tensor::Matrix* dst = i == 0 ? grad_input : &grad_scratch_[step % 2];
    layers_[i].backward_into(*current, *dst, write);
    current = dst;
  }
}

void Mlp::zero_gradients() noexcept {
  for (auto& layer : layers_) layer.zero_gradients();
}

void Mlp::register_with(Optimizer& optimizer) {
  for (auto& layer : layers_) {
    optimizer.register_parameters({layer.weights().data(),
                                   layer.weight_grad().data(),
                                   layer.weights().size()});
    optimizer.register_parameters({layer.bias().data(), layer.bias_grad().data(),
                                   layer.bias().size()});
  }
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

void Mlp::save(util::BinaryWriter& writer) const {
  writer.write_u64(input_dim_);
  writer.write_u64(layers_.size());
  for (const auto& layer : layers_) layer.save(writer);
}

Mlp Mlp::load(util::BinaryReader& reader) {
  Mlp mlp;
  mlp.input_dim_ = reader.read_u64();
  if (mlp.input_dim_ == 0) {
    throw std::runtime_error("Mlp::load: input_dim is 0; stream is corrupt");
  }
  const auto count = reader.read_u64();
  // A Dense layer encodes at least 40 bytes: in, out and three prefixes.
  reader.check_length(count, 40);
  mlp.layers_.reserve(count);
  // Cross-validate the layer chain as it streams in: a corrupted file must
  // fail here with a dimension message, not later as a confusing GEMM
  // shape error in the middle of inference.
  std::size_t expected_in = mlp.input_dim_;
  for (std::uint64_t i = 0; i < count; ++i) {
    Dense layer = Dense::load(reader);
    if (layer.in_features() != expected_in) {
      throw std::runtime_error(
          "Mlp::load: layer " + std::to_string(i) + " input dim " +
          std::to_string(layer.in_features()) +
          " does not chain from previous output dim " +
          std::to_string(expected_in) + "; stream is corrupt");
    }
    expected_in = layer.out_features();
    mlp.layers_.push_back(std::move(layer));
  }
  return mlp;
}

}  // namespace prodigy::nn
