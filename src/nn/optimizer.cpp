// This translation unit is compiled like tensor/kernels.cpp (see
// src/CMakeLists.txt): with -ffp-contract=off, so `beta * m + (1 - beta) * g`
// can never fuse into an FMA on a vector ISA, and with -fno-math-errno, so
// the correctly rounded sqrt needs no errno branch and vectorizes.  Adam's
// update is therefore the same IEEE sequence per element on every path.
#include "nn/optimizer.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

#if defined(PRODIGY_NO_SIMD)
#define PRODIGY_SIMD
#else
#define PRODIGY_SIMD _Pragma("omp simd")
#endif

namespace prodigy::nn {

Sgd::Sgd(double lr, double momentum) : lr_(lr), momentum_(momentum) {}

void Sgd::register_parameters(ParamView view) {
  views_.push_back(view);
  velocity_.emplace_back(view.size, 0.0);
}

void Sgd::step() {
  for (std::size_t k = 0; k < views_.size(); ++k) {
    auto& view = views_[k];
    auto& vel = velocity_[k];
    for (std::size_t i = 0; i < view.size; ++i) {
      vel[i] = momentum_ * vel[i] - lr_ * view.grad[i];
      view.param[i] += vel[i];
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::register_parameters(ParamView view) {
  views_.push_back(view);
  offsets_.push_back(m_.size());
  m_.resize(m_.size() + view.size, 0.0);
  v_.resize(v_.size() + view.size, 0.0);
}

namespace {

struct AdamCoeffs {
  double beta1, one_minus_beta1, beta2, one_minus_beta2, bias1, bias2, lr,
      epsilon;
};

// The textbook update of elements [0, n), each element's operations in the
// order of the scalar formula (m, v, the two bias corrections, then the
// step).  The coefficients arrive as locals and the buffers as restrict
// pointers, so the loop vectorizes, divisions and sqrt included, without
// changing any element's rounding.
void adam_update(double* __restrict param, const double* __restrict grad,
                 double* __restrict m, double* __restrict v, std::size_t n,
                 AdamCoeffs c) {
  PRODIGY_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    const double mi = c.beta1 * m[i] + c.one_minus_beta1 * g;
    const double vi = c.beta2 * v[i] + c.one_minus_beta2 * g * g;
    m[i] = mi;
    v[i] = vi;
    const double m_hat = mi / c.bias1;
    const double v_hat = vi / c.bias2;
    param[i] -= c.lr * m_hat / (std::sqrt(v_hat) + c.epsilon);
  }
}

}  // namespace

void Adam::step() {
  ++t_;
  const AdamCoeffs coeffs{beta1_,
                          1.0 - beta1_,
                          beta2_,
                          1.0 - beta2_,
                          1.0 - std::pow(beta1_, static_cast<double>(t_)),
                          1.0 - std::pow(beta2_, static_cast<double>(t_)),
                          lr_,
                          epsilon_};
  const std::size_t total = m_.size();
  util::parallel_for(0, (total + kChunk - 1) / kChunk, [&](std::size_t chunk) {
    const std::size_t lo = chunk * kChunk;
    const std::size_t hi = std::min(total, lo + kChunk);
    for (std::size_t k = 0; k < views_.size(); ++k) {
      const std::size_t start = offsets_[k];
      const std::size_t s0 = std::max(lo, start);
      const std::size_t s1 = std::min(hi, start + views_[k].size);
      if (s0 >= s1) continue;
      adam_update(views_[k].param + (s0 - start), views_[k].grad + (s0 - start),
                  m_.data() + s0, v_.data() + s0, s1 - s0, coeffs);
    }
  });
}

}  // namespace prodigy::nn
