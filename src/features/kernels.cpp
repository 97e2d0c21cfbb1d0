// Feature-extraction inner-loop kernels.  See kernels.hpp for the
// determinism contract; this TU is compiled with -ffp-contract=off plus
// -march=PRODIGY_KERNEL_ARCH and -fopenmp-simd, so the vector hints below
// widen without changing any rounding.
#include "features/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

// Same escape hatch as tensor/kernels.cpp: under PRODIGY_NO_SIMD every hint
// is a no-op and the lane loops compile as plain scalar code — evaluating
// the identical arithmetic DAG, so numerics do not change.
#if defined(PRODIGY_NO_SIMD)
#define PRODIGY_SIMD
#define PRODIGY_SIMD_REDUCE(...)
#else
#define PRODIGY_SIMD _Pragma("omp simd")
#define PRODIGY_PRAGMA_STR(x) #x
#define PRODIGY_SIMD_REDUCE(...) \
  _Pragma(PRODIGY_PRAGMA_STR(omp simd reduction(+ : __VA_ARGS__)))
#endif

namespace prodigy::features::kernels {

namespace {

bool g_force_scalar = false;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void force_scalar(bool on) noexcept { g_force_scalar = on; }
bool scalar_forced() noexcept { return g_force_scalar; }

// ---------------------------------------------------------------------------
// Lane-structured floating-point reductions.
//
// Element i always lands in lane i % kSumLanes (the tail loop starts at a
// multiple of kSumLanes, so `i - tail_start` preserves that mapping), and
// lanes fold in ascending lane order.  The scalar twins repeat the loops
// without the vector hint: same tree, same bits.

SumEnergy sum_energy_scalar(std::span<const double> xs) noexcept {
  double sum[kSumLanes] = {}, energy[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double x = xs[i + l];
      sum[l] += x;
      energy[l] += x * x;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double x = xs[i];
    sum[i - tail] += x;
    energy[i - tail] += x * x;
  }
  SumEnergy r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.sum += sum[l];
    r.energy += energy[l];
  }
  return r;
}

SumEnergy sum_energy(std::span<const double> xs) noexcept {
  if (g_force_scalar) return sum_energy_scalar(xs);
  double sum[kSumLanes] = {}, energy[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double x = xs[i + l];
      sum[l] += x;
      energy[l] += x * x;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double x = xs[i];
    sum[i - tail] += x;
    energy[i - tail] += x * x;
  }
  SumEnergy r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.sum += sum[l];
    r.energy += energy[l];
  }
  return r;
}

double lane_sum_scalar(std::span<const double> xs) noexcept {
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) lanes[l] += xs[i + l];
  }
  for (std::size_t i = tail; i < n; ++i) lanes[i - tail] += xs[i];
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double lane_sum(std::span<const double> xs) noexcept {
  if (g_force_scalar) return lane_sum_scalar(xs);
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) lanes[l] += xs[i + l];
  }
  for (std::size_t i = tail; i < n; ++i) lanes[i - tail] += xs[i];
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double freq_weighted_sum_scalar(std::span<const double> xs,
                                double scale) noexcept {
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += (static_cast<double>(i + l) * scale) * xs[i + l];
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    lanes[i - tail] += (static_cast<double>(i) * scale) * xs[i];
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double freq_weighted_sum(std::span<const double> xs, double scale) noexcept {
  if (g_force_scalar) return freq_weighted_sum_scalar(xs, scale);
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += (static_cast<double>(i + l) * scale) * xs[i + l];
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    lanes[i - tail] += (static_cast<double>(i) * scale) * xs[i];
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double freq_spread_sum_scalar(std::span<const double> xs, double scale,
                              double center) noexcept {
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = static_cast<double>(i + l) * scale - center;
      lanes[l] += d * d * xs[i + l];
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double d = static_cast<double>(i) * scale - center;
    lanes[i - tail] += d * d * xs[i];
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double freq_spread_sum(std::span<const double> xs, double scale,
                       double center) noexcept {
  if (g_force_scalar) return freq_spread_sum_scalar(xs, scale, center);
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = static_cast<double>(i + l) * scale - center;
      lanes[l] += d * d * xs[i + l];
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double d = static_cast<double>(i) * scale - center;
    lanes[i - tail] += d * d * xs[i];
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double centered_sq_sum_scalar(std::span<const double> xs,
                              double mean) noexcept {
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = xs[i + l] - mean;
      lanes[l] += d * d;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double d = xs[i] - mean;
    lanes[i - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double centered_sq_sum(std::span<const double> xs, double mean) noexcept {
  if (g_force_scalar) return centered_sq_sum_scalar(xs, mean);
  double lanes[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = xs[i + l] - mean;
      lanes[l] += d * d;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double d = xs[i] - mean;
    lanes[i - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

// Successive-difference reductions index the m = n - 1 adjacent pairs;
// pair j covers (xs[j], xs[j + 1]) and lands in lane j % kSumLanes.

double abs_change_sum_scalar(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += std::abs(xs[j + l + 1] - xs[j + l]);
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    lanes[j - tail] += std::abs(xs[j + 1] - xs[j]);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double abs_change_sum(std::span<const double> xs) noexcept {
  if (g_force_scalar) return abs_change_sum_scalar(xs);
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += std::abs(xs[j + l + 1] - xs[j + l]);
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    lanes[j - tail] += std::abs(xs[j + 1] - xs[j]);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double sq_change_sum_scalar(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = xs[j + l + 1] - xs[j + l];
      lanes[l] += d * d;
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    const double d = xs[j + 1] - xs[j];
    lanes[j - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double sq_change_sum(std::span<const double> xs) noexcept {
  if (g_force_scalar) return sq_change_sum_scalar(xs);
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d = xs[j + l + 1] - xs[j + l];
      lanes[l] += d * d;
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    const double d = xs[j + 1] - xs[j];
    lanes[j - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double sq_zchange_sum_scalar(std::span<const double> xs, double mean,
                             double stddev) noexcept {
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d =
          (xs[j + l + 1] - mean) / stddev - (xs[j + l] - mean) / stddev;
      lanes[l] += d * d;
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    const double d = (xs[j + 1] - mean) / stddev - (xs[j] - mean) / stddev;
    lanes[j - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double sq_zchange_sum(std::span<const double> xs, double mean,
                      double stddev) noexcept {
  if (g_force_scalar) return sq_zchange_sum_scalar(xs, mean, stddev);
  if (xs.size() < 2) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 1;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double d =
          (xs[j + l + 1] - mean) / stddev - (xs[j + l] - mean) / stddev;
      lanes[l] += d * d;
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    const double d = (xs[j + 1] - mean) / stddev - (xs[j] - mean) / stddev;
    lanes[j - tail] += d * d;
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

// Central second differences index the m = n - 2 interior points; term j
// covers (xs[j], xs[j + 1], xs[j + 2]).

double second_derivative_sum_scalar(std::span<const double> xs) noexcept {
  if (xs.size() < 3) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 2;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] +=
          0.5 * (xs[j + l + 2] - 2.0 * xs[j + l + 1] + xs[j + l]);
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    lanes[j - tail] += 0.5 * (xs[j + 2] - 2.0 * xs[j + 1] + xs[j]);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double second_derivative_sum(std::span<const double> xs) noexcept {
  if (g_force_scalar) return second_derivative_sum_scalar(xs);
  if (xs.size() < 3) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - 2;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t j = 0; j < tail; j += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] +=
          0.5 * (xs[j + l + 2] - 2.0 * xs[j + l + 1] + xs[j + l]);
    }
  }
  for (std::size_t j = tail; j < m; ++j) {
    lanes[j - tail] += 0.5 * (xs[j + 2] - 2.0 * xs[j + 1] + xs[j]);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

ZMoments zmoment_sums_scalar(std::span<const double> xs, double mean,
                             double stddev) noexcept {
  double z3[kSumLanes] = {}, z4[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double z = (xs[i + l] - mean) / stddev;
      const double zz = z * z;
      z3[l] += zz * z;
      z4[l] += zz * zz;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double z = (xs[i] - mean) / stddev;
    const double zz = z * z;
    z3[i - tail] += zz * z;
    z4[i - tail] += zz * zz;
  }
  ZMoments r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.z3 += z3[l];
    r.z4 += z4[l];
  }
  return r;
}

ZMoments zmoment_sums(std::span<const double> xs, double mean,
                      double stddev) noexcept {
  if (g_force_scalar) return zmoment_sums_scalar(xs, mean, stddev);
  double z3[kSumLanes] = {}, z4[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double z = (xs[i + l] - mean) / stddev;
      const double zz = z * z;
      z3[l] += zz * z;
      z4[l] += zz * zz;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double z = (xs[i] - mean) / stddev;
    const double zz = z * z;
    z3[i - tail] += zz * z;
    z4[i - tail] += zz * zz;
  }
  ZMoments r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.z3 += z3[l];
    r.z4 += z4[l];
  }
  return r;
}

TrendSums trend_sums_scalar(std::span<const double> xs, double t_mean,
                            double x_mean) noexcept {
  double stx[kSumLanes] = {}, stt[kSumLanes] = {}, sxx[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double dt = static_cast<double>(i + l) - t_mean;
      const double dx = xs[i + l] - x_mean;
      stx[l] += dt * dx;
      stt[l] += dt * dt;
      sxx[l] += dx * dx;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double dt = static_cast<double>(i) - t_mean;
    const double dx = xs[i] - x_mean;
    stx[i - tail] += dt * dx;
    stt[i - tail] += dt * dt;
    sxx[i - tail] += dx * dx;
  }
  TrendSums r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.stx += stx[l];
    r.stt += stt[l];
    r.sxx += sxx[l];
  }
  return r;
}

TrendSums trend_sums(std::span<const double> xs, double t_mean,
                     double x_mean) noexcept {
  if (g_force_scalar) return trend_sums_scalar(xs, t_mean, x_mean);
  double stx[kSumLanes] = {}, stt[kSumLanes] = {}, sxx[kSumLanes] = {};
  const std::size_t n = xs.size();
  const std::size_t tail = n - n % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double dt = static_cast<double>(i + l) - t_mean;
      const double dx = xs[i + l] - x_mean;
      stx[l] += dt * dx;
      stt[l] += dt * dt;
      sxx[l] += dx * dx;
    }
  }
  for (std::size_t i = tail; i < n; ++i) {
    const double dt = static_cast<double>(i) - t_mean;
    const double dx = xs[i] - x_mean;
    stx[i - tail] += dt * dx;
    stt[i - tail] += dt * dt;
    sxx[i - tail] += dx * dx;
  }
  TrendSums r;
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.stx += stx[l];
    r.stt += stt[l];
    r.sxx += sxx[l];
  }
  return r;
}

double centered_lag_mac_scalar(std::span<const double> xs, double mean,
                               std::size_t lag) noexcept {
  if (xs.size() <= lag) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - lag;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += (xs[i + l] - mean) * (xs[i + l + lag] - mean);
    }
  }
  for (std::size_t i = tail; i < m; ++i) {
    lanes[i - tail] += (xs[i] - mean) * (xs[i + lag] - mean);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

double centered_lag_mac(std::span<const double> xs, double mean,
                        std::size_t lag) noexcept {
  if (g_force_scalar) return centered_lag_mac_scalar(xs, mean, lag);
  if (xs.size() <= lag) return 0.0;
  double lanes[kSumLanes] = {};
  const std::size_t m = xs.size() - lag;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      lanes[l] += (xs[i + l] - mean) * (xs[i + l + lag] - mean);
    }
  }
  for (std::size_t i = tail; i < m; ++i) {
    lanes[i - tail] += (xs[i] - mean) * (xs[i + lag] - mean);
  }
  double total = 0.0;
  for (std::size_t l = 0; l < kSumLanes; ++l) total += lanes[l];
  return total;
}

C3TrSums c3_tr_sums_scalar(std::span<const double> xs,
                           std::size_t lag) noexcept {
  C3TrSums r;
  if (lag == 0 || xs.size() < 2 * lag + 1) return r;
  double c3[kSumLanes] = {}, tr[kSumLanes] = {};
  const std::size_t m = xs.size() - 2 * lag;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double a = xs[i + l + 2 * lag];
      const double b = xs[i + l + lag];
      const double c = xs[i + l];
      c3[l] += a * b * c;
      tr[l] += a * a * b - b * c * c;
    }
  }
  for (std::size_t i = tail; i < m; ++i) {
    const double a = xs[i + 2 * lag];
    const double b = xs[i + lag];
    const double c = xs[i];
    c3[i - tail] += a * b * c;
    tr[i - tail] += a * a * b - b * c * c;
  }
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.c3 += c3[l];
    r.tr += tr[l];
  }
  return r;
}

C3TrSums c3_tr_sums(std::span<const double> xs, std::size_t lag) noexcept {
  if (g_force_scalar) return c3_tr_sums_scalar(xs, lag);
  C3TrSums r;
  if (lag == 0 || xs.size() < 2 * lag + 1) return r;
  double c3[kSumLanes] = {}, tr[kSumLanes] = {};
  const std::size_t m = xs.size() - 2 * lag;
  const std::size_t tail = m - m % kSumLanes;
  for (std::size_t i = 0; i < tail; i += kSumLanes) {
    PRODIGY_SIMD
    for (std::size_t l = 0; l < kSumLanes; ++l) {
      const double a = xs[i + l + 2 * lag];
      const double b = xs[i + l + lag];
      const double c = xs[i + l];
      c3[l] += a * b * c;
      tr[l] += a * a * b - b * c * c;
    }
  }
  for (std::size_t i = tail; i < m; ++i) {
    const double a = xs[i + 2 * lag];
    const double b = xs[i + lag];
    const double c = xs[i];
    c3[i - tail] += a * b * c;
    tr[i - tail] += a * a * b - b * c * c;
  }
  for (std::size_t l = 0; l < kSumLanes; ++l) {
    r.c3 += c3[l];
    r.tr += tr[l];
  }
  return r;
}

// ---------------------------------------------------------------------------
// Integer window statistics.

RunStats run_stats_scalar(std::span<const double> xs, double mean) noexcept {
  // Verbatim historical pass (SeriesProfile pass 2 / the incremental
  // per-emission loop): the parity oracle for the flag-based vector path.
  RunStats r;
  std::size_t run_above = 0, run_below = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (x > mean) {
      ++r.count_above;
      ++run_above;
      r.longest_above = std::max(r.longest_above, run_above);
    } else {
      run_above = 0;
    }
    if (x < mean) {
      ++r.count_below;
      ++run_below;
      r.longest_below = std::max(r.longest_below, run_below);
    } else {
      run_below = 0;
    }
    if (i > 0 && ((xs[i - 1] > mean) != (x > mean))) ++r.crossings;
  }
  return r;
}

RunStats run_stats(std::span<const double> xs, double mean) {
  if (g_force_scalar) return run_stats_scalar(xs, mean);
  const std::size_t n = xs.size();
  if (n == 0) return {};
  // One vector pass classifies every element into two flag bits (NaN sets
  // neither, matching the historical x > mean / x < mean branch pair), then
  // cheap byte scans tally the counts; the run/crossing scans are
  // branchless over the flag bytes.  All outputs are integers, so this is
  // bit-exact against the scalar oracle by construction.
  thread_local std::vector<std::uint8_t> flags;
  flags.resize(n);
  std::uint8_t* fl = flags.data();
  PRODIGY_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    fl[i] = static_cast<std::uint8_t>((x > mean ? 1u : 0u) |
                                      (x < mean ? 2u : 0u));
  }
  RunStats r;
  std::size_t above = 0, below = 0, crossings = 0;
  PRODIGY_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    above += fl[i] & 1u;
    below += (fl[i] >> 1) & 1u;
  }
  PRODIGY_SIMD
  for (std::size_t i = 1; i < n; ++i) {
    crossings += (fl[i - 1] ^ fl[i]) & 1u;
  }
  r.count_above = above;
  r.count_below = below;
  r.crossings = crossings;
  std::size_t run_above = 0, run_below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = fl[i] & 1u;
    const std::size_t b = (fl[i] >> 1) & 1u;
    run_above = (run_above + 1) & (0 - a);  // a == 0 resets the run
    run_below = (run_below + 1) & (0 - b);
    r.longest_above = std::max(r.longest_above, run_above);
    r.longest_below = std::max(r.longest_below, run_below);
  }
  return r;
}

std::size_t count_beyond_scalar(std::span<const double> xs, double mean,
                                double threshold) noexcept {
  std::size_t count = 0;
  for (double x : xs) count += std::abs(x - mean) > threshold ? 1 : 0;
  return count;
}

std::size_t count_beyond(std::span<const double> xs, double mean,
                         double threshold) noexcept {
  if (g_force_scalar) return count_beyond_scalar(xs, mean, threshold);
  std::size_t count = 0;
  const std::size_t n = xs.size();
  PRODIGY_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    count += std::abs(xs[i] - mean) > threshold ? 1 : 0;
  }
  return count;
}

std::size_t count_flag_bits_scalar(std::span<const std::uint8_t> flags,
                                   std::uint8_t bit) noexcept {
  std::size_t count = 0;
  for (const std::uint8_t f : flags) count += (f & bit) != 0 ? 1 : 0;
  return count;
}

std::size_t count_flag_bits(std::span<const std::uint8_t> flags,
                            std::uint8_t bit) noexcept {
  if (g_force_scalar) return count_flag_bits_scalar(flags, bit);
  std::size_t count = 0;
  const std::size_t n = flags.size();
  PRODIGY_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    count += (flags[i] & bit) != 0 ? 1 : 0;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Approximate entropy's symmetric pair sweep.

void apen_match_counts_scalar(std::span<const double> series, std::size_t m,
                              double r, std::span<std::uint32_t> matches_lo,
                              std::span<std::uint32_t> matches_hi,
                              ApEnScratch& scratch) {
  // Verbatim PR-6 sweep: sorted dim-1 prefilter, contiguous run scan,
  // shared prefix comparison for dims m and m+1.  The parity oracle.
  const std::size_t count_lo = matches_lo.size();
  const std::size_t count_hi = matches_hi.size();
  if (m == 0) {
    for (std::size_t i = 0; i < count_lo; ++i) {
      for (std::size_t j = i + 1; j < count_lo; ++j) {
        ++matches_lo[i];
        ++matches_lo[j];
        if (j < count_hi && !(std::abs(series[i] - series[j]) > r)) {
          ++matches_hi[i];
          ++matches_hi[j];
        }
      }
    }
    return;
  }
  auto& order = scratch.order;
  order.resize(count_lo);
  for (std::size_t i = 0; i < count_lo; ++i) {
    order[i] = {series[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t a = 0; a < count_lo; ++a) {
    const std::size_t i = order[a].second;
    const double vi = order[a].first;
    for (std::size_t b = a + 1; b < count_lo; ++b) {
      if (order[b].first - vi > r) break;  // sorted: later b is farther
      const std::size_t j = order[b].second;
      bool match = true;
      for (std::size_t k = 1; k < m && match; ++k) {
        if (std::abs(series[i + k] - series[j + k]) > r) match = false;
      }
      if (!match) continue;
      ++matches_lo[i];
      ++matches_lo[j];
      if (std::max(i, j) < count_hi &&
          !(std::abs(series[i + m] - series[j + m]) > r)) {
        ++matches_hi[i];
        ++matches_hi[j];
      }
    }
  }
}

void apen_match_counts_ordered(std::span<const double> series, std::size_t m,
                               double r, std::span<const double> order_values,
                               std::span<const std::uint32_t> order_index,
                               std::span<std::uint32_t> matches_lo,
                               std::span<std::uint32_t> matches_hi,
                               ApEnScratch& scratch) {
  if (order_values.size() != matches_lo.size() ||
      order_index.size() != matches_lo.size()) {
    throw std::invalid_argument(
        "apen_match_counts_ordered: order length != template count");
  }
  if (g_force_scalar || m == 0) {
    apen_match_counts_scalar(series, m, r, matches_lo, matches_hi, scratch);
    return;
  }
  const std::size_t count_lo = matches_lo.size();
  const std::size_t count_hi = matches_hi.size();
  const double* vals = order_values.data();
  const std::uint32_t* idxs = order_index.data();

  // Same sorted dim-1 prefilter as the scalar sweep, but the run scan is
  // register-tiled: the later components of the ordered templates are
  // packed into lane-contiguous arrays once per call, so the inner tile is
  // all unit-stride loads.  level k of `next` holds series[idx + k]; the
  // extension level m stores +inf for the one window-start index >=
  // count_hi, which fails !(|a - b| > r) against any finite anchor — the
  // max(i, j) < count_hi guard folded into data.  (The anchor side uses the
  // same sentinel; both operands can never be the sentinel at once because
  // only one window index lacks an extension.)
  scratch.next.resize(m * count_lo);
  double* next = scratch.next.data();
  for (std::size_t k = 1; k < m; ++k) {
    double* level = next + (k - 1) * count_lo;
    for (std::size_t b = 0; b < count_lo; ++b) level[b] = series[idxs[b] + k];
  }
  {
    double* ext = next + (m - 1) * count_lo;
    for (std::size_t b = 0; b < count_lo; ++b) {
      ext[b] = idxs[b] < count_hi ? series[idxs[b] + m] : kInf;
    }
  }

  // Diagonal pair sweep.  All candidate pairs live in a band of the sorted
  // order: pair (a, a + d) is plausible iff vals[a + d] - vals[a] <= r.
  // Iterating the offset d in the outer loop turns every inner loop into a
  // full-length unit-stride pass over the lane-contiguous arrays — no
  // per-pair scatters and no short-trip vector loops (per-anchor candidate
  // runs are only ~W * P(|x - y| <= r) elements, far too short to amortize
  // vector prologues).  vals is sorted and finite (non-finite series
  // short-circuit before the sweep, see approximate_entropy), so if no
  // pair passes the dim-1 test at offset d none can pass at d + 1:
  // vals[a + d + 1] - vals[a] >= vals[a + d] - vals[a]; the d loop stops at
  // the longest dim-1 run.  Matches accumulate into position-indexed
  // counters (lo_by_pos / hi_by_pos) — both sides of each symmetric pair
  // are shifted unit-stride array adds — and one O(count_lo) fold at the
  // end routes the counts through idxs to the caller's window-indexed
  // arrays.  Counts are integers, so accumulation order is irrelevant and
  // the result is bit-identical to the scalar oracle.
  scratch.mask.resize(count_lo);
  scratch.maskh.resize(count_lo);
  scratch.lo_by_pos.assign(count_lo, 0);
  scratch.hi_by_pos.assign(count_lo, 0);
  std::uint32_t* mask = scratch.mask.data();
  std::uint32_t* maskh = scratch.maskh.data();
  std::uint32_t* lo_by_pos = scratch.lo_by_pos.data();
  std::uint32_t* hi_by_pos = scratch.hi_by_pos.data();
  const double* ext = next + (m - 1) * count_lo;
  // Monotone band: validity of pair (a, a + d) at the dim-1 level only
  // shrinks as d grows (vals[a + d + 1] >= vals[a + d]), so the earliest
  // and latest dim-1-valid positions bound the scan for every later
  // offset.  The two shrink scans use the scalar sweep's own predicate,
  // and positions outside the band are exactly those whose dim-1 test
  // fails — the scalar sweep's break skips them too.  The band emptying
  // doubles as the termination test, replacing a per-diagonal reduction.
  std::size_t amin = 0;
  std::size_t amax = count_lo >= 2 ? count_lo - 2 : 0;
  for (std::size_t d = 1; d < count_lo; ++d) {
    if (amax > count_lo - 1 - d) amax = count_lo - 1 - d;
    while (amin <= amax && vals[amin + d] - vals[amin] > r) ++amin;
    if (amin > amax) break;
    while (vals[amax + d] - vals[amax] > r) --amax;  // stops at amin: valid
    const std::size_t a0 = amin;
    const std::size_t nd = amax + 1 - amin;
    if (m == 2) {
      // The pipeline's only shape (ApEn runs at m = 2): one fused pass
      // computes dim-1, the single refinement level, the extension level
      // (+inf sentinel: fails !(|x - y| > r) against any finite operand,
      // and both operands can never be the sentinel at once — only one
      // window index lacks an extension), and the earlier-side counter
      // adds; a second shifted pass adds the later side of each pair.
      const double* l1 = next;
      PRODIGY_SIMD
      for (std::size_t a = a0; a < a0 + nd; ++a) {
        const std::uint32_t d1 =
            static_cast<std::uint32_t>(!(vals[a + d] - vals[a] > r));
        const std::uint32_t mm =
            d1 & static_cast<std::uint32_t>(!(std::abs(l1[a] - l1[a + d]) > r));
        const std::uint32_t mh =
            mm &
            static_cast<std::uint32_t>(!(std::abs(ext[a] - ext[a + d]) > r));
        mask[a] = mm;
        maskh[a] = mh;
        lo_by_pos[a] += mm;
        hi_by_pos[a] += mh;
      }
    } else {
      if (m >= 2) {
        // First refinement level folds into the dim-1 pass.
        const double* l1 = next;
        PRODIGY_SIMD
        for (std::size_t a = a0; a < a0 + nd; ++a) {
          const std::uint32_t d1 =
              static_cast<std::uint32_t>(!(vals[a + d] - vals[a] > r));
          mask[a] = d1 & static_cast<std::uint32_t>(
                             !(std::abs(l1[a] - l1[a + d]) > r));
        }
      } else {
        // m == 1: dim-m is the dim-1 prefilter itself.
        PRODIGY_SIMD
        for (std::size_t a = a0; a < a0 + nd; ++a) {
          mask[a] =
              static_cast<std::uint32_t>(!(vals[a + d] - vals[a] > r));
        }
      }
      for (std::size_t k = 2; k < m; ++k) {
        const double* lk = next + (k - 1) * count_lo;
        PRODIGY_SIMD
        for (std::size_t a = a0; a < a0 + nd; ++a) {
          mask[a] &=
              static_cast<std::uint32_t>(!(std::abs(lk[a] - lk[a + d]) > r));
        }
      }
      // Extension level (+inf sentinel, see above) and earlier-side adds.
      PRODIGY_SIMD
      for (std::size_t a = a0; a < a0 + nd; ++a) {
        const std::uint32_t mh =
            mask[a] &
            static_cast<std::uint32_t>(!(std::abs(ext[a] - ext[a + d]) > r));
        maskh[a] = mh;
        lo_by_pos[a] += mask[a];
        hi_by_pos[a] += mh;
      }
    }
    // Later side of each symmetric pair.
    PRODIGY_SIMD
    for (std::size_t a = a0; a < a0 + nd; ++a) {
      lo_by_pos[a + d] += mask[a];
      hi_by_pos[a + d] += maskh[a];
    }
  }
  for (std::size_t b = 0; b < count_lo; ++b) {
    matches_lo[idxs[b]] += lo_by_pos[b];
    if (idxs[b] < count_hi) matches_hi[idxs[b]] += hi_by_pos[b];
  }
}

void apen_match_counts(std::span<const double> series, std::size_t m,
                       double r, std::span<std::uint32_t> matches_lo,
                       std::span<std::uint32_t> matches_hi,
                       ApEnScratch& scratch) {
  if (g_force_scalar || m == 0) {
    apen_match_counts_scalar(series, m, r, matches_lo, matches_hi, scratch);
    return;
  }
  const std::size_t count_lo = matches_lo.size();
  auto& order = scratch.order;
  order.resize(count_lo);
  for (std::size_t i = 0; i < count_lo; ++i) {
    order[i] = {series[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  scratch.vals.resize(count_lo);
  scratch.idxs.resize(count_lo);
  for (std::size_t b = 0; b < count_lo; ++b) {
    scratch.vals[b] = order[b].first;
    scratch.idxs[b] = order[b].second;
  }
  apen_match_counts_ordered(series, m, r, scratch.vals, scratch.idxs,
                            matches_lo, matches_hi, scratch);
}

}  // namespace prodigy::features::kernels
