#include "features/fft.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <latch>
#include <limits>
#include <numbers>
#include <thread>
#include <vector>

namespace prodigy::features {
namespace {

/// Gaussian series with a DC offset, so the mean removal is exercised.
std::vector<double> gaussian_series(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.gaussian(5.0, 2.0);
  return xs;
}

/// One-sided power spectrum by the O(N^2) definition: the mean-removed
/// series zero-padded to N = 2^m, |sum_j x_j e^{-2 pi i jk / N}|^2 for
/// k = 0 .. N/2.
std::vector<double> naive_power_spectrum(const std::vector<double>& xs) {
  std::size_t padded = 1;
  while (padded < xs.size()) padded <<= 1;
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  std::vector<double> power(padded / 2 + 1);
  for (std::size_t k = 0; k < power.size(); ++k) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>((j * k) % padded) /
                           static_cast<double>(padded);
      re += (xs[j] - mean) * std::cos(angle);
      im += (xs[j] - mean) * std::sin(angle);
    }
    power[k] = re * re + im * im;
  }
  return power;
}

/// The interleaved real-input transform power_spectrum replaced, kept as
/// the bitwise oracle for the split-array rewrite: std::complex buffer,
/// strided twiddle reads w^{k m / h}, the same exact-angle table, and the
/// same per-element mul/add sequence in every butterfly and split step.
std::vector<double> interleaved_power_spectrum(const std::vector<double>& xs) {
  double mean = 0.0;
  if (!xs.empty()) {
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
  }
  if (xs.size() < 2) {
    return {xs.empty() ? 0.0 : (xs[0] - mean) * (xs[0] - mean)};
  }
  std::size_t n = 2;
  while (n < xs.size()) n <<= 1;
  const std::size_t m = n / 2;
  std::vector<std::size_t> bitrev(m, 0);
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    bitrev[i] = j ^= bit;
  }
  std::vector<std::complex<double>> w(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(n);
    w[j] = {std::cos(angle), std::sin(angle)};
  }
  std::vector<std::complex<double>> z(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t i = 2 * j;
    z[bitrev[j]] = {i < xs.size() ? xs[i] - mean : 0.0,
                    i + 1 < xs.size() ? xs[i + 1] - mean : 0.0};
  }
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
  std::vector<double> power(m + 1);
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
  return power;
}

/// Total power of the full two-sided spectrum from its one-sided half.
double two_sided_total(const std::vector<double>& power) {
  const std::size_t half = power.size() - 1;
  double total = power[0] + power[half];
  for (std::size_t k = 1; k < half; ++k) total += 2.0 * power[k];
  return total;
}

TEST(FftTest, DcSignal) {
  // Mean removal leaves no power in any bin for a pure DC signal, and a DC
  // offset added to a signal moves no bin beyond rounding.
  for (const std::size_t n : {std::size_t{8}, std::size_t{100}}) {
    for (const double p : power_spectrum(std::vector<double>(n, 3.0))) {
      EXPECT_NEAR(p, 0.0, 1e-12);
    }
    const auto xs = gaussian_series(n, 4);
    auto shifted = xs;
    for (auto& x : shifted) x += 1000.0;
    const auto power = power_spectrum(xs);
    const auto power_shifted = power_spectrum(shifted);
    const double tol = 1e-9 * two_sided_total(power);
    ASSERT_EQ(power.size(), power_shifted.size());
    EXPECT_NEAR(power[0], 0.0, tol);
    for (std::size_t k = 0; k < power.size(); ++k) {
      EXPECT_NEAR(power_shifted[k], power[k], tol) << "n=" << n << " bin " << k;
    }
  }
}

TEST(FftTest, SingleToneLandsInCorrectBin) {
  constexpr std::size_t n = 64;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = std::cos(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) / n);
  }
  const auto power = power_spectrum(xs);
  // |X_5| = n/2; every other bin is empty.
  for (std::size_t k = 0; k < power.size(); ++k) {
    EXPECT_NEAR(power[k], k == 5 ? (n / 2.0) * (n / 2.0) : 0.0, 1e-9)
        << "bin " << k;
  }
}

TEST(FftTest, ParsevalHolds) {
  // sum_k |X_k|^2 / N == sum_j (x_j - mean)^2, padded or not.
  for (const std::size_t n : {std::size_t{128}, std::size_t{100}}) {
    const auto xs = gaussian_series(n, 1);
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(n);
    double time_energy = 0.0;
    for (const double x : xs) time_energy += (x - mean) * (x - mean);
    const auto power = power_spectrum(xs);
    const double padded = 2.0 * static_cast<double>(power.size() - 1);
    EXPECT_NEAR(two_sided_total(power) / padded, time_energy,
                1e-12 * time_energy)
        << "n=" << n;
  }
}

TEST(PowerSpectrumTest, MatchesNaiveDft) {
  for (const std::size_t n :
       {1, 2, 3, 4, 5, 8, 31, 64, 97, 100, 256, 1000, 1024, 4096}) {
    const auto xs = gaussian_series(n, 10 + n);
    const auto want = naive_power_spectrum(xs);
    const auto got = power_spectrum(xs);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    double total = 0.0;
    for (const double p : want) total += p;
    const double tol = 1e-12 * std::max(total, 1.0);
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_NEAR(got[k], want[k], tol) << "n=" << n << " bin " << k;
    }
  }
}

/// Bitwise comparison of a spectrum against the interleaved oracle.
void expect_bitwise_oracle(const std::vector<double>& xs, const char* kind) {
  const auto want = interleaved_power_spectrum(xs);
  const auto got = power_spectrum(xs);
  ASSERT_EQ(got.size(), want.size()) << kind << " n=" << xs.size();
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << kind << " n=" << xs.size() << " bin " << k << ": " << got[k]
        << " vs " << want[k];
  }
}

TEST(PowerSpectrumTest, BitwiseEqualsInterleavedOracleAcrossLengths) {
  // Every length 1..1024 (each padding up to 1024, odd lengths, the
  // smallest transforms whose stages have no butterflies), then every 37th
  // length and each 2^b - 1, 2^b, 2^b + 1 up to 4096; random input.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 1024; ++n) lengths.push_back(n);
  for (std::size_t n = 1061; n <= 4096; n += 37) lengths.push_back(n);
  for (const std::size_t p : {2048, 4096}) {
    lengths.insert(lengths.end(), {p - 1, p, p + 1});
  }
  for (const std::size_t n : lengths) {
    expect_bitwise_oracle(gaussian_series(n, 7 * n + 1), "gaussian");
  }
}

TEST(PowerSpectrumTest, BitwiseEqualsInterleavedOracleOnSpecialInputs) {
  const std::vector<std::size_t> lengths = {1,  2,   3,   4,    7,    8,
                                            31, 64,  100, 256,  300,  1023,
                                            1024, 1025, 4096};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : lengths) {
    util::Rng rng(n);
    expect_bitwise_oracle(std::vector<double>(n, 3.25), "constant");
    std::vector<double> spiky(n, 0.0);
    for (std::size_t i = 0; i < n; i += 1 + rng.uniform_index(17)) {
      spiky[i] = rng.uniform() < 0.5 ? 1e12 : -7.5e-3;
    }
    expect_bitwise_oracle(spiky, "spiky");
    for (const double special : {kInf, -kInf, nan}) {
      auto xs = gaussian_series(n, 3 * n);
      xs[rng.uniform_index(n)] = special;
      expect_bitwise_oracle(xs, "special");
    }
    auto mixed = gaussian_series(n, 5 * n);
    mixed[0] = kInf;
    mixed[n - 1] = -kInf;
    expect_bitwise_oracle(mixed, "+inf/-inf");
  }
}

TEST(PowerSpectrumTest, ConcurrentMixedSizesMatchSingleThread) {
  // Four threads race through first use of each transform size (every
  // test runs in a fresh process, so no plan exists yet) in different
  // orders; each spectrum must equal the single-threaded one bit for bit.
  const std::vector<std::size_t> sizes = {3,   17,   100,  200, 511,
                                          700, 1000, 2500, 4096};
  std::vector<std::vector<double>> inputs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    inputs.push_back(gaussian_series(sizes[i], 50 + i));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<double>>> got(
      kThreads, std::vector<std::vector<double>>(sizes.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::AlignedVec<double> buffer;
      util::AlignedVec<double> power;
      start.arrive_and_wait();
      for (std::size_t step = 0; step < 3 * sizes.size(); ++step) {
        const std::size_t r = (step + 2 * t) % sizes.size();
        const std::size_t i = t % 2 == 0 ? r : sizes.size() - 1 - r;
        power_spectrum(inputs[i], buffer, power);
        got[t][i].assign(power.begin(), power.end());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto want = power_spectrum(inputs[i]);
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t][i].size(), want.size()) << "thread " << t;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t][i][k]),
                  std::bit_cast<std::uint64_t>(want[k]))
            << "n=" << sizes[i] << " thread " << t << " bin " << k;
      }
    }
  }
}

TEST(PowerSpectrumTest, PadsArbitraryLengths) {
  const std::vector<double> xs(100, 1.0);
  const auto power = power_spectrum(xs);
  EXPECT_EQ(power.size(), 128 / 2 + 1);  // padded to 128
}

TEST(PowerSpectrumTest, MeanRemovedSoDcIsZero) {
  const std::vector<double> xs(64, 5.0);
  const auto power = power_spectrum(xs);
  for (const double p : power) EXPECT_NEAR(p, 0.0, 1e-12);
}

TEST(SpectralSummaryTest, PeakFrequencyOfSine) {
  constexpr std::size_t n = 256;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = std::sin(2.0 * std::numbers::pi * 32.0 * static_cast<double>(i) / n);
  }
  const SpectralSummary summary = spectral_summary(xs);
  // Bin 32 of 128 one-sided bins -> normalized frequency 0.25.
  EXPECT_NEAR(summary.peak_frequency, 0.25, 0.02);
  EXPECT_NEAR(summary.centroid, 0.25, 0.05);
  EXPECT_GT(summary.total_power, 0.0);
}

TEST(SpectralSummaryTest, EntropyOrdersToneVsNoise) {
  util::Rng rng(2);
  std::vector<double> tone(256), noise(256);
  for (std::size_t i = 0; i < 256; ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 10.0 * static_cast<double>(i) / 256.0);
    noise[i] = rng.gaussian();
  }
  EXPECT_LT(spectral_summary(tone).entropy, spectral_summary(noise).entropy);
}

TEST(SpectralSummaryTest, BandPowersSumToOne) {
  util::Rng rng(3);
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.gaussian();
  const SpectralSummary summary = spectral_summary(xs);
  const double total = summary.band_power[0] + summary.band_power[1] +
                       summary.band_power[2] + summary.band_power[3];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SpectralSummaryTest, DegenerateInputsAreZero) {
  const SpectralSummary empty = spectral_summary(std::vector<double>{});
  EXPECT_DOUBLE_EQ(empty.total_power, 0.0);
  const SpectralSummary constant = spectral_summary(std::vector<double>(32, 7.0));
  EXPECT_DOUBLE_EQ(constant.total_power, 0.0);
  EXPECT_DOUBLE_EQ(constant.centroid, 0.0);
}

// Zero-padding audit: padding an odd-length window to the next power of two
// must not shift the frequency axis.  Normalized frequency 1.0 is Nyquist
// (half the sample rate) whatever the true sample count, because padding
// changes the grid resolution, not the sample period.
TEST(SpectralSummaryTest, OddLengthPaddingKeepsFrequencyAxis) {
  // A tone at 1/4 of the sample rate (half of Nyquist): x[i] = cos(pi/2 i).
  // n = 97 pads to 128; the peak must land at normalized frequency ~0.5
  // regardless (bin 32 of 64), not at 97-relative coordinates.
  std::vector<double> tone(97);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::cos(std::numbers::pi / 2.0 * static_cast<double>(i));
  }
  const auto power = power_spectrum(tone);
  ASSERT_EQ(power.size(), 128 / 2 + 1);  // padded one-sided spectrum
  const SpectralSummary summary = spectral_summary_from_power(power);
  // Leakage from the rectangular cut spreads the tone over neighbouring
  // bins, so allow one bin (1/64) of slack around 0.5.
  EXPECT_NEAR(summary.peak_frequency, 0.5, 1.0 / 64.0 + 1e-12);
  EXPECT_NEAR(summary.centroid, 0.5, 0.05);
}

TEST(SpectralSummaryTest, OddLengthMatchesTruncatedPowerOfTwoAxis) {
  // The same Nyquist-relative tone sampled over 64 and over 96 samples must
  // peak at the same normalized frequency even though one path pads (96 ->
  // 128) and the other does not: the axis is sample-period-relative.
  auto tone_of = [](std::size_t n) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = std::sin(2.0 * std::numbers::pi * 0.25 * static_cast<double>(i));
    }
    return xs;
  };
  const SpectralSummary exact = spectral_summary(tone_of(64));
  const SpectralSummary padded = spectral_summary(tone_of(96));
  EXPECT_NEAR(exact.peak_frequency, 0.5, 1e-12);
  EXPECT_NEAR(padded.peak_frequency, 0.5, 1.0 / 64.0 + 1e-12);
}

}  // namespace
}  // namespace prodigy::features
