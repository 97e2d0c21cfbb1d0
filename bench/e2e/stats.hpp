// Order statistics and open-loop schedule arithmetic for the end-to-end
// benchmark.  Header-only and free of library dependencies so
// stats_test.cpp can pin every rule the reported numbers rest on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace prodigy::bench::e2e {

/// Nearest-rank percentile of ascending `sorted`: the value at 1-based rank
/// ceil(q * n), clamped to [1, n].  0 for an empty sample.
inline double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// The highest of p99.9 / p99 / p90 / p50 that leaves at least `min_beyond`
/// samples beyond it; 0.5 when none does (the median is always reported).
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.5;
}

/// Median and first/third quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so C++ and compare.py agree.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  /// (q3 - q1) / |median|: the run-to-run spread the bounds are checked
  /// against.  0 when the median is 0.
  double spread() const noexcept {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive") step for step: m = n + 1, cut
  // point i of 4 at 1-based position i * m / 4, the neighbour index clamped
  // to [1, n - 1] before the interpolation weight is taken.
  const auto cut = [&](std::int64_t i) {
    const auto len = static_cast<std::int64_t>(n);
    const std::int64_t m = len + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, len - 1);
    const std::int64_t delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

/// Fixed-rate open-loop schedule: tick t is due at start + t / rate, in
/// integer nanoseconds so no drift accumulates over long phases.
struct Schedule {
  std::int64_t start_ns = 0;
  double ticks_per_s = 1.0;

  std::int64_t due_ns(std::int64_t tick) const noexcept {
    return start_ns + static_cast<std::int64_t>(std::llround(
                          static_cast<double>(tick) * 1e9 / ticks_per_s));
  }
  /// How late an action for `tick` ran (0 when on time or early).
  std::int64_t late_ns(std::int64_t tick, std::int64_t at_ns) const noexcept {
    return std::max<std::int64_t>(0, at_ns - due_ns(tick));
  }
};

/// Sliding windows of `window` rows advancing by `hop`: how many are
/// complete after `rows` rows, and which row (0-based) completes window k.
inline std::uint64_t windows_after(std::uint64_t rows, std::uint64_t window,
                                   std::uint64_t hop) {
  return rows < window ? 0 : (rows - window) / hop + 1;
}
inline std::uint64_t window_last_row(std::uint64_t k, std::uint64_t window,
                                     std::uint64_t hop) {
  return k * hop + window - 1;
}

/// Latency-objective accounting over the scheduled outputs: a missing
/// output (nullopt) counts as a miss, exactly like a late one.
struct SloCount {
  std::uint64_t scheduled = 0;
  std::uint64_t missing = 0;
  std::uint64_t late = 0;

  std::uint64_t misses() const noexcept { return missing + late; }
  double miss_frac() const noexcept {
    return scheduled > 0 ? static_cast<double>(misses()) /
                               static_cast<double>(scheduled)
                         : 0.0;
  }
};

inline SloCount count_slo(std::span<const std::optional<double>> latencies,
                          double limit) {
  SloCount out;
  out.scheduled = latencies.size();
  for (const auto& latency : latencies) {
    if (!latency) {
      ++out.missing;
    } else if (*latency > limit) {
      ++out.late;
    }
  }
  return out;
}

}  // namespace prodigy::bench::e2e
