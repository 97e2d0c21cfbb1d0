#include "features/fft.hpp"

#include "features/kernels.hpp"
#include "tensor/stats.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

// This TU gets the feature kernels' flags (-ffp-contract=off plus the kernel
// -march and -fopenmp-simd), so the hinted loops below widen without
// changing any rounding; under PRODIGY_NO_SIMD the same loops run scalar.
#if defined(PRODIGY_NO_SIMD)
#define PRODIGY_SIMD
#else
#define PRODIGY_SIMD _Pragma("omp simd")
#endif

namespace prodigy::features {

namespace {

/// Tables for a real transform of length n = 2^b >= 2 (an m = n/2-point
/// complex FFT plus a split step): the m-point bit-reversal permutation and
/// w^j = e^{-2 pi i j / n}, j < m, each from its own exact angle.  The
/// butterfly stage of half-width h reads w^{k m / h}, k < h; `stage_re` /
/// `stage_im` hold copies of those values at [h - 1, 2h - 1), so every
/// stage reads its twiddles with unit stride.
struct FftPlan {
  std::vector<std::size_t> bitrev;
  std::vector<double> w_re, w_im;
  util::AlignedVec<double> stage_re, stage_im;
};

FftPlan make_plan(std::size_t n) {
  const std::size_t m = n / 2;
  FftPlan plan;
  plan.bitrev.assign(m, 0);
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    plan.bitrev[i] = j ^= bit;
  }
  plan.w_re.resize(m);
  plan.w_im.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    plan.w_re[j] = std::cos(angle);
    plan.w_im[j] = std::sin(angle);
  }
  plan.stage_re.resize(m > 0 ? m - 1 : 0);
  plan.stage_im.resize(plan.stage_re.size());
  for (std::size_t h = 1; h < m; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      plan.stage_re[h - 1 + k] = plan.w_re[k * (m / h)];
      plan.stage_im[h - 1 + k] = plan.w_im[k * (m / h)];
    }
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

/// Butterfly stages h < this run in natural order (see power_spectrum).
constexpr std::size_t kNaturalOrderStages = 8;

}  // namespace

void power_spectrum(std::span<const double> xs,
                    util::AlignedVec<double>& fft_buffer,
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

  // z_j = x_{2j} + i x_{2j+1} (mean-removed, zero-padded), in natural
  // order, split into real and imaginary arrays.
  fft_buffer.resize(2 * m);
  double* re = fft_buffer.data();
  double* im = re + m;
  const double* x = xs.data();
  const std::size_t pairs = xs.size() / 2;
  PRODIGY_SIMD
  for (std::size_t j = 0; j < pairs; ++j) {
    re[j] = x[2 * j] - mean;
    im[j] = x[2 * j + 1] - mean;
  }
  for (std::size_t j = pairs; j < m; ++j) {
    re[j] = 2 * j < xs.size() ? x[2 * j] - mean : 0.0;
    im[j] = 0.0;
  }

  // Radix-2 decimation-in-time butterflies: stage h pairs positions p and
  // p + h of the bit-reversed sequence with twiddle w^{k m / h}, k = p mod h.
  // Each element keeps the complex product's mul/add sequence (contraction
  // is off for this TU), so vector lanes round like the scalar loop, and
  // the memory order a butterfly runs in cannot change its bits.
  const auto butterfly = [](double& ar, double& ai, double& br, double& bi,
                            double wr, double wi) {
    const double tr = br * wr - bi * wi;
    const double ti = br * wi + bi * wr;
    const double xr = ar;
    const double xi = ai;
    ar = xr + tr;
    ai = xi + ti;
    br = xr - tr;
    bi = xi - ti;
  };
  // The first stages run before the bit reversal, where their butterflies
  // form long unit-stride runs: in natural order stage h pairs j with
  // j + m / (2h) inside blocks of m / h, block q taking k = the log2(h)-bit
  // reversal of q.  The remaining stages run on the bit-reversed sequence,
  // whose runs (length h) are long by then.
  std::size_t h = 1;
  for (; h < m && h < kNaturalOrderStages; h <<= 1) {
    const std::size_t half = m / (2 * h);
    for (std::size_t q = 0; q < h; ++q) {
      const std::size_t k = plan.bitrev[q] / (m / h);
      const double wr = plan.stage_re[h - 1 + k];
      const double wi = plan.stage_im[h - 1 + k];
      double* ar = re + 2 * q * half;
      double* ai = im + 2 * q * half;
      double* br = ar + half;
      double* bi = ai + half;
      PRODIGY_SIMD
      for (std::size_t j = 0; j < half; ++j) {
        butterfly(ar[j], ai[j], br[j], bi[j], wr, wi);
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (; h < m; h <<= 1) {
    const double* wr = plan.stage_re.data() + (h - 1);
    const double* wi = plan.stage_im.data() + (h - 1);
    for (std::size_t base = 0; base < m; base += 2 * h) {
      double* ar = re + base;
      double* ai = im + base;
      double* br = ar + h;
      double* bi = ai + h;
      PRODIGY_SIMD
      for (std::size_t k = 0; k < h; ++k) {
        butterfly(ar[k], ai[k], br[k], bi[k], wr[k], wi[k]);
      }
    }
  }

  // Split step: with E_k = (Z_k + conj Z_{m-k}) / 2 and
  // O_k = -i (Z_k - conj Z_{m-k}) / 2 (the even/odd-sample transforms),
  // X_k = E_k + w^k O_k and X_{m-k} = conj(E_k - w^k O_k).
  power.resize(m + 1);
  double* out = power.data();
  out[0] = (re[0] + im[0]) * (re[0] + im[0]);
  out[m] = (re[0] - im[0]) * (re[0] - im[0]);
  if (m >= 2) out[m / 2] = re[m / 2] * re[m / 2] + im[m / 2] * im[m / 2];
  const double* wr = plan.w_re.data();
  const double* wi = plan.w_im.data();
  PRODIGY_SIMD
  for (std::size_t k = 1; k < m / 2; ++k) {
    const double er = 0.5 * (re[k] + re[m - k]);
    const double ei = 0.5 * (im[k] - im[m - k]);
    const double orr = 0.5 * (im[k] + im[m - k]);
    const double oi = 0.5 * (re[m - k] - re[k]);
    const double tr = wr[k] * orr - wi[k] * oi;
    const double ti = wr[k] * oi + wi[k] * orr;
    out[k] = (er + tr) * (er + tr) + (ei + ti) * (ei + ti);
    out[m - k] = (er - tr) * (er - tr) + (ei - ti) * (ei - ti);
  }
}

std::vector<double> power_spectrum(std::span<const double> xs) {
  util::AlignedVec<double> buffer;
  util::AlignedVec<double> power;
  power_spectrum(xs, buffer, power);
  return {power.begin(), power.end()};
}

SpectralSummary spectral_summary(std::span<const double> xs) {
  return spectral_summary_from_power(power_spectrum(xs));
}

SpectralSummary spectral_summary_from_power(std::span<const double> power,
                                            bool entropy) {
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
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[peak_bin]) peak_bin = k;
  }
  summary.peak_frequency = static_cast<double>(peak_bin) / bins;
  if (entropy) {
    for (const double bin : power) {
      const double p = bin / total;
      if (p > 0.0) summary.entropy -= p * std::log(p);
    }
  }

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
