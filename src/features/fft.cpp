#include "features/fft.hpp"

#include "features/kernels.hpp"
#include "tensor/stats.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <numbers>

namespace prodigy::features {

namespace {

/// Tables for a real transform of length n = 2^b >= 2 (an m = n/2-point
/// complex FFT plus a split step): the m-point bit-reversal permutation and
/// w^j = e^{-2 pi i j / n}, j < m, each from its own exact angle.
struct FftPlan {
  std::vector<std::size_t> bitrev;
  std::vector<std::complex<double>> twiddle;
};

FftPlan make_plan(std::size_t n) {
  const std::size_t m = n / 2;
  FftPlan plan{std::vector<std::size_t>(m, 0),
               std::vector<std::complex<double>>(m)};
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    plan.bitrev[i] = j ^= bit;
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    plan.twiddle[j] = {std::cos(angle), std::sin(angle)};
  }
  return plan;
}

/// The plan for n = 2^log2n, built on first use.  A published plan is never
/// modified or freed, so a lookup is one acquire load; racing first callers
/// each build one and the losers of the publishing CAS discard theirs.
const FftPlan& plan_for(std::size_t log2n) {
  static std::array<std::atomic<const FftPlan*>, 64> plans{};
  auto& slot = plans[log2n];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan != nullptr) return *plan;
  auto fresh =
      std::make_unique<const FftPlan>(make_plan(std::size_t{1} << log2n));
  if (slot.compare_exchange_strong(plan, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    plan = fresh.release();
  }
  return *plan;
}

}  // namespace

void power_spectrum(std::span<const double> xs,
                    util::AlignedVec<std::complex<double>>& fft_buffer,
                    util::AlignedVec<double>& power) {
  const double mean = tensor::mean(xs);  // 0 for an empty series
  if (xs.size() < 2) {
    power.assign(1, xs.empty() ? 0.0 : (xs[0] - mean) * (xs[0] - mean));
    return;
  }
  // Zero-padding audit (odd/non-power-of-two lengths): padding to 2^m does
  // NOT change the frequency axis, only its sampling.  Bin k of a P-point
  // transform sits at normalized frequency k / (P/2) with 1.0 = Nyquist,
  // regardless of the true sample count n: the padded signal has the same
  // sample period, so Nyquist is the same physical frequency, and
  // spectral_summary_from_power's k / (power.size() - 1) normalization is
  // correct as-is.  What padding does change is bin magnitudes (spectral
  // leakage of the implicit rectangular window onto a finer grid), which
  // is the standard, documented trade-off — NOT a frequency-axis bug.
  // tests/fft_test.cpp pins both properties on odd-length inputs.
  std::size_t log2n = 1;
  while ((std::size_t{1} << log2n) < xs.size()) ++log2n;
  const std::size_t m = (std::size_t{1} << log2n) / 2;
  const FftPlan& plan = plan_for(log2n);
  const std::complex<double>* w = plan.twiddle.data();

  // z_j = x_{2j} + i x_{2j+1} (mean-removed, zero-padded), bit-reversed.
  fft_buffer.resize(m);
  std::complex<double>* z = fft_buffer.data();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t i = 2 * j;
    z[plan.bitrev[j]] = {i < xs.size() ? xs[i] - mean : 0.0,
                         i + 1 < xs.size() ? xs[i + 1] - mean : 0.0};
  }

  // Radix-2 decimation-in-time butterflies; stage h uses w^{k m / h}.
  for (std::size_t h = 1; h < m; h <<= 1) {
    const std::size_t stride = m / h;
    for (std::size_t base = 0; base < m; base += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const std::complex<double> a = z[base + k];
        const std::complex<double> b = z[base + k + h];
        const std::complex<double> t = w[k * stride];
        const double tr = b.real() * t.real() - b.imag() * t.imag();
        const double ti = b.real() * t.imag() + b.imag() * t.real();
        z[base + k] = {a.real() + tr, a.imag() + ti};
        z[base + k + h] = {a.real() - tr, a.imag() - ti};
      }
    }
  }

  // Split step: with E_k = (Z_k + conj Z_{m-k}) / 2 and
  // O_k = -i (Z_k - conj Z_{m-k}) / 2 (the even/odd-sample transforms),
  // X_k = E_k + w^k O_k and X_{m-k} = conj(E_k - w^k O_k).
  power.resize(m + 1);
  const std::complex<double> z0 = z[0];
  power[0] = (z0.real() + z0.imag()) * (z0.real() + z0.imag());
  power[m] = (z0.real() - z0.imag()) * (z0.real() - z0.imag());
  if (m >= 2) power[m / 2] = std::norm(z[m / 2]);
  for (std::size_t k = 1; 2 * k < m; ++k) {
    const std::complex<double> a = z[k];
    const std::complex<double> b = z[m - k];
    const double er = 0.5 * (a.real() + b.real());
    const double ei = 0.5 * (a.imag() - b.imag());
    const double orr = 0.5 * (a.imag() + b.imag());
    const double oi = 0.5 * (b.real() - a.real());
    const double tr = w[k].real() * orr - w[k].imag() * oi;
    const double ti = w[k].real() * oi + w[k].imag() * orr;
    power[k] = (er + tr) * (er + tr) + (ei + ti) * (ei + ti);
    power[m - k] = (er - tr) * (er - tr) + (ei - ti) * (ei - ti);
  }
}

std::vector<double> power_spectrum(std::span<const double> xs) {
  util::AlignedVec<std::complex<double>> buffer;
  util::AlignedVec<double> power;
  power_spectrum(xs, buffer, power);
  return {power.begin(), power.end()};
}

SpectralSummary spectral_summary(std::span<const double> xs) {
  return spectral_summary_from_power(power_spectrum(xs));
}

SpectralSummary spectral_summary_from_power(std::span<const double> power) {
  // The weighted sums run through the fixed-lane feature kernels (power is
  // finite and non-negative by construction), with the per-element
  // normalizations folded into one final divide each; the entropy pass
  // stays a scalar loop — its per-bin std::log calls must stay on the
  // scalar libm path so SIMD and no-SIMD builds agree bit-for-bit.
  SpectralSummary summary;
  if (power.size() < 2) return summary;

  const double total = kernels::lane_sum(power);
  summary.total_power = total;
  if (total <= 0.0) return summary;

  const double bins = static_cast<double>(power.size() - 1);
  const double inv_bins = 1.0 / bins;
  const double centroid = kernels::freq_weighted_sum(power, inv_bins) / total;
  summary.centroid = centroid;
  summary.spread =
      std::sqrt(kernels::freq_spread_sum(power, inv_bins, centroid) / total);

  std::size_t peak_bin = 0;
  double entropy = 0.0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    if (power[k] > power[peak_bin]) peak_bin = k;
    const double p = power[k] / total;
    if (p > 0.0) entropy -= p * std::log(p);
  }
  summary.peak_frequency = static_cast<double>(peak_bin) / bins;
  summary.entropy = entropy;

  // Band powers: the bucket map min(3, floor(k / bins * 4)) is monotone
  // non-decreasing in k, so each band is a contiguous bin range; three
  // binary searches over the index space find the cut points with the
  // exact per-element map, and each band sums through the lane kernel.
  std::size_t cut[5];
  cut[0] = 0;
  cut[4] = power.size();
  for (std::size_t band = 1; band <= 3; ++band) {
    std::size_t lo = cut[band - 1];
    std::size_t hi = power.size();
    while (lo < hi) {  // first k whose bucket >= band
      const std::size_t mid = lo + (hi - lo) / 2;
      const auto bucket = std::min<std::size_t>(
          3, static_cast<std::size_t>(static_cast<double>(mid) / bins * 4.0));
      if (bucket < band) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cut[band] = lo;
  }
  for (std::size_t band = 0; band < 4; ++band) {
    summary.band_power[band] =
        kernels::lane_sum(power.subspan(cut[band], cut[band + 1] - cut[band])) /
        total;
  }
  return summary;
}

}  // namespace prodigy::features
