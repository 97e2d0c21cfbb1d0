// Loss functions: scalar value + gradient w.r.t. predictions, both averaged
// over batch elements so learning rates are batch-size independent.  Each
// returns the value; a non-null gradient matrix is resized (capacity
// reused, so a training loop's buffers stop allocating after the first
// step) and filled, and a null one skips the gradient entirely.
#pragma once

#include "tensor/matrix.hpp"

namespace prodigy::nn {

/// Mean squared error over all elements; `grad` receives dL/dpred.
double mse_loss(const tensor::Matrix& pred, const tensor::Matrix& target,
                tensor::Matrix* grad = nullptr);

/// Mean absolute error over all elements (subgradient 0 at ties).
double mae_loss(const tensor::Matrix& pred, const tensor::Matrix& target,
                tensor::Matrix* grad = nullptr);

/// KL( N(mu, exp(logvar)) || N(0, I) ), averaged over the batch, with the
/// gradients for mu and logvar written separately.
double gaussian_kl(const tensor::Matrix& mu, const tensor::Matrix& logvar,
                   tensor::Matrix* grad_mu = nullptr,
                   tensor::Matrix* grad_logvar = nullptr);

}  // namespace prodigy::nn
