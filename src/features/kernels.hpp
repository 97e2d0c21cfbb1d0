// SIMD kernel library for the feature-extraction inner loops.
//
// PR 6's incremental engine left a handful of intentionally-exact O(W)
// passes on the per-emission path: approximate entropy's symmetric pair
// sweep, the linear aggregates (sum/energy/variance/|dx|), the
// mean-relative run statistics, and the trend/moment/autocorrelation
// accumulators.  This TU vectorizes them with the same per-TU discipline as
// tensor/kernels.cpp: compiled with -march=PRODIGY_KERNEL_ARCH,
// -ffp-contract=off so no FMA contraction can change results between the
// vector and scalar paths, and a portable scalar fallback under
// PRODIGY_NO_SIMD.
//
// Determinism contract
// --------------------
// Every kernel's result is a pure function of its inputs — independent of
// ISA, vector width, and build flags:
//
//  * Integer kernels (ApEn match counts, run statistics, sigma counts,
//    peak-flag counts) tally order-invariant integers; any iteration order
//    produces identical counts, so the SIMD path is bit-identical to the
//    verbatim historical loop kept as its scalar oracle.
//  * Floating-point reductions use kSumLanes fixed partial sums: element i
//    always lands in lane i % kSumLanes and lanes are folded in ascending
//    lane order.  That arithmetic DAG is the contract — the "SIMD" and
//    "scalar" builds evaluate the same tree, so results are EXPECT_EQ-equal
//    across every build mode.  (The lane tree rounds differently from the
//    historical serial chain by ~1 ulp per partial; the batch and
//    incremental paths both route through these kernels, which is what
//    keeps them bit-exact against each other.)
//
// The dispatch seam: each public entry point runs the vector path unless
// force_scalar(true) was called (tests and the before/after bench gauges
// flip it); the *_scalar twins are always available for direct comparison.
#pragma once

#include "util/aligned.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace prodigy::features::kernels {

/// Fixed partial-sum fan-out for every floating-point reduction.  Part of
/// the numeric contract — changing it changes feature bits.
inline constexpr std::size_t kSumLanes = 16;

/// When true, every dispatching kernel below runs its scalar oracle
/// instead of the vector path.  Not thread-synchronized: flip it only from
/// single-threaded test/bench setup code.
void force_scalar(bool on) noexcept;
bool scalar_forced() noexcept;

// ---------------------------------------------------------------------------
// Linear aggregates (SeriesProfile pass 1/2/3 and the per-emission pass).

struct SumEnergy {
  double sum = 0.0;
  double energy = 0.0;  // sum of x^2
};

/// One interleaved pass: sum(x) and sum(x^2), kSumLanes partial sums each.
SumEnergy sum_energy(std::span<const double> xs) noexcept;
SumEnergy sum_energy_scalar(std::span<const double> xs) noexcept;

/// Lane-structured sum(x) (linear_trend's mean uses it).
double lane_sum(std::span<const double> xs) noexcept;
double lane_sum_scalar(std::span<const double> xs) noexcept;

/// Sum of (i * scale) * xs[i] — the spectral centroid numerator with
/// scale = 1 / bins (per-element frequency times power).
double freq_weighted_sum(std::span<const double> xs, double scale) noexcept;
double freq_weighted_sum_scalar(std::span<const double> xs,
                                double scale) noexcept;

/// Sum of (i * scale - center)^2 * xs[i] — the spectral spread numerator
/// around a known centroid.
double freq_spread_sum(std::span<const double> xs, double scale,
                       double center) noexcept;
double freq_spread_sum_scalar(std::span<const double> xs, double scale,
                              double center) noexcept;

/// Variance numerator sum((x - mean)^2); caller divides by n.
double centered_sq_sum(std::span<const double> xs, double mean) noexcept;
double centered_sq_sum_scalar(std::span<const double> xs,
                              double mean) noexcept;

/// sum |x[i] - x[i-1]| over successive pairs.
double abs_change_sum(std::span<const double> xs) noexcept;
double abs_change_sum_scalar(std::span<const double> xs) noexcept;

/// sum (x[i] - x[i-1])^2 — cid_ce's unnormalized accumulator.
double sq_change_sum(std::span<const double> xs) noexcept;
double sq_change_sum_scalar(std::span<const double> xs) noexcept;

/// cid_ce's normalized accumulator: z[i] = (x[i] - mean) / stddev,
/// sum (z[i] - z[i-1])^2 with the standalone extractor's per-element ops.
double sq_zchange_sum(std::span<const double> xs, double mean,
                      double stddev) noexcept;
double sq_zchange_sum_scalar(std::span<const double> xs, double mean,
                             double stddev) noexcept;

/// Central second differences: sum 0.5 * (x[i+1] - 2 x[i] + x[i-1]).
double second_derivative_sum(std::span<const double> xs) noexcept;
double second_derivative_sum_scalar(std::span<const double> xs) noexcept;

struct ZMoments {
  double z3 = 0.0;  // sum ((x - mean)/stddev)^3
  double z4 = 0.0;  // sum ((x - mean)/stddev)^4
};

/// Standardized third/fourth moment sums (skewness/kurtosis numerators).
ZMoments zmoment_sums(std::span<const double> xs, double mean,
                      double stddev) noexcept;
ZMoments zmoment_sums_scalar(std::span<const double> xs, double mean,
                             double stddev) noexcept;

struct TrendSums {
  double stx = 0.0;  // sum dt * dx
  double stt = 0.0;  // sum dt * dt
  double sxx = 0.0;  // sum dx * dx
};

/// Least-squares accumulators for linear_trend: dt = i - t_mean,
/// dx = x[i] - x_mean.
TrendSums trend_sums(std::span<const double> xs, double t_mean,
                     double x_mean) noexcept;
TrendSums trend_sums_scalar(std::span<const double> xs, double t_mean,
                            double x_mean) noexcept;

/// sum (x[i] - mean) * (x[i + lag] - mean) over i in [0, n - lag).
double centered_lag_mac(std::span<const double> xs, double mean,
                        std::size_t lag) noexcept;
double centered_lag_mac_scalar(std::span<const double> xs, double mean,
                               std::size_t lag) noexcept;

struct C3TrSums {
  double c3 = 0.0;  // sum x[i+2L] * x[i+L] * x[i]
  double tr = 0.0;  // sum x[i+2L]^2 * x[i+L] - x[i+L] * x[i]^2
};

/// Fused c3 / time-reversal-asymmetry accumulators over i in
/// [0, n - 2*lag); requires n >= 2*lag + 1 (callers guard).
C3TrSums c3_tr_sums(std::span<const double> xs, std::size_t lag) noexcept;
C3TrSums c3_tr_sums_scalar(std::span<const double> xs,
                           std::size_t lag) noexcept;

// ---------------------------------------------------------------------------
// Integer window statistics (order-invariant counts: bit-exact by
// construction under any vector width).

struct RunStats {
  std::size_t count_above = 0;
  std::size_t count_below = 0;
  std::size_t longest_above = 0;
  std::size_t longest_below = 0;
  std::size_t crossings = 0;
};

/// Mean-relative counts, longest strikes, and sign crossings.  NaN
/// elements compare false on both sides of the mean (neither above nor
/// below), exactly like the historical branch pair.
RunStats run_stats(std::span<const double> xs, double mean);
RunStats run_stats_scalar(std::span<const double> xs, double mean) noexcept;

/// Count of |x - mean| > threshold (ratio_beyond_r_sigma numerator).
std::size_t count_beyond(std::span<const double> xs, double mean,
                         double threshold) noexcept;
std::size_t count_beyond_scalar(std::span<const double> xs, double mean,
                                double threshold) noexcept;

/// Count of flag bytes with `bit` set — the rolling peak-count tally over
/// one contiguous ring segment.
std::size_t count_flag_bits(std::span<const std::uint8_t> flags,
                            std::uint8_t bit) noexcept;
std::size_t count_flag_bits_scalar(std::span<const std::uint8_t> flags,
                                   std::uint8_t bit) noexcept;

// ---------------------------------------------------------------------------
// Approximate entropy's symmetric pair sweep.

/// Reused lane buffers for the sweep (thread_local at the call site).
struct ApEnScratch {
  // The sorting entry point's dim-1 order: (value, index) pairs, then the
  // sorted first components and their template indices, lane-contiguous.
  std::vector<std::pair<double, std::uint32_t>> order;
  util::AlignedVec<double> vals;
  std::vector<std::uint32_t> idxs;
  util::AlignedVec<double> next;  // level-major: series[idx + k], k = 1..m
  util::AlignedVec<std::uint32_t> mask;       // per-diagonal dim-m matches
  util::AlignedVec<std::uint32_t> maskh;      // per-diagonal dim-(m+1)
  util::AlignedVec<std::uint32_t> lo_by_pos;  // deferred counts, sort order
  util::AlignedVec<std::uint32_t> hi_by_pos;
};

/// Fills matches_lo/matches_hi (pre-seeded with the self-match 1) with the
/// exact integer pair-match counts for embedding dims m and m+1: pair
/// (i, j) matches at dim m when every component distance
/// |series[i+k] - series[j+k]|, k < m, passes !(d > r), and at dim m+1 when
/// the next component also agrees (tested only while both windows exist,
/// max(i,j) < matches_hi.size()).  The negated predicate is the historical
/// NaN semantics; r must be finite (approximate_entropy short-circuits
/// non-finite r before sweeping, which also keeps NaN out of the sort).
/// matches_lo.size() must be series.size() - m + 1 and matches_hi.size()
/// one less.  Counts are integers, so the SIMD lane sweep is bit-identical
/// to the scalar run scan.  Sorts the templates by first component
/// (std::sort), then runs the sweep apen_match_counts_ordered runs.
void apen_match_counts(std::span<const double> series, std::size_t m,
                       double r, std::span<std::uint32_t> matches_lo,
                       std::span<std::uint32_t> matches_hi,
                       ApEnScratch& scratch);
/// The same counts from a caller-supplied dim-1 order: order_values
/// ascending, order_index[b] the template whose first component is
/// order_values[b] (== series[order_index[b]]), every template
/// [0, matches_lo.size()) exactly once.  Ties may come in any order — each
/// unordered pair is still visited once and the counts are integers, so
/// the result equals apen_match_counts.  Throws std::invalid_argument when
/// either order span's length differs from matches_lo.size().  Under
/// force_scalar (and for m == 0) the order is ignored and the scalar oracle
/// runs.
void apen_match_counts_ordered(std::span<const double> series, std::size_t m,
                               double r, std::span<const double> order_values,
                               std::span<const std::uint32_t> order_index,
                               std::span<std::uint32_t> matches_lo,
                               std::span<std::uint32_t> matches_hi,
                               ApEnScratch& scratch);
void apen_match_counts_scalar(std::span<const double> series, std::size_t m,
                              double r, std::span<std::uint32_t> matches_lo,
                              std::span<std::uint32_t> matches_hi,
                              ApEnScratch& scratch);

}  // namespace prodigy::features::kernels
