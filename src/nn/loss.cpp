#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace prodigy::nn {

namespace {

// Shapes `out` like `like` for overwrite and returns its data, or nullptr
// when the caller asked for no gradient.
double* gradient_buffer(tensor::Matrix* out, const tensor::Matrix& like) {
  if (out == nullptr) return nullptr;
  out->resize_for_overwrite(like.rows(), like.cols());
  return out->data();
}

}  // namespace

double mse_loss(const tensor::Matrix& pred, const tensor::Matrix& target,
                tensor::Matrix* grad) {
  if (!pred.same_shape(target)) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  double* g = gradient_buffer(grad, pred);
  const double scale = pred.size() == 0 ? 0.0 : 1.0 / static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double diff = pred.data()[i] - target.data()[i];
    acc += diff * diff;
    if (g != nullptr) g[i] = 2.0 * diff * scale;
  }
  return acc * scale;
}

double mae_loss(const tensor::Matrix& pred, const tensor::Matrix& target,
                tensor::Matrix* grad) {
  if (!pred.same_shape(target)) {
    throw std::invalid_argument("mae_loss: shape mismatch");
  }
  double* g = gradient_buffer(grad, pred);
  const double scale = pred.size() == 0 ? 0.0 : 1.0 / static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double diff = pred.data()[i] - target.data()[i];
    acc += std::abs(diff);
    if (g != nullptr) g[i] = (diff > 0.0 ? 1.0 : diff < 0.0 ? -1.0 : 0.0) * scale;
  }
  return acc * scale;
}

double gaussian_kl(const tensor::Matrix& mu, const tensor::Matrix& logvar,
                   tensor::Matrix* grad_mu, tensor::Matrix* grad_logvar) {
  if (!mu.same_shape(logvar)) {
    throw std::invalid_argument("gaussian_kl: shape mismatch");
  }
  double* g_mu = gradient_buffer(grad_mu, mu);
  double* g_logvar = gradient_buffer(grad_logvar, mu);
  const double batch = mu.rows() == 0 ? 1.0 : static_cast<double>(mu.rows());
  double acc = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const double m = mu.data()[i];
    const double lv = logvar.data()[i];
    const double var = std::exp(lv);
    acc += -0.5 * (1.0 + lv - m * m - var);
    if (g_mu != nullptr) g_mu[i] = m / batch;
    if (g_logvar != nullptr) g_logvar[i] = 0.5 * (var - 1.0) / batch;
  }
  return acc / batch;
}

}  // namespace prodigy::nn
