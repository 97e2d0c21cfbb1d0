#include "features/incremental_profile.hpp"

#include "features/kernels.hpp"
#include "features/registry.hpp"
#include "features/series_preprocess.hpp"
#include "tensor/stats.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace prodigy::features {

// ---------------------------------------------------------------------------
// SortedWindow

namespace {

/// Whether a 32-bit row is at or after the 32-bit window start.  Modular,
/// so the truncated rows keep working past 2^32 pushed rows.
inline std::uint32_t is_live(std::uint32_t row, std::uint32_t start) noexcept {
  return static_cast<std::uint32_t>(row - start) < (1u << 31) ? 1u : 0u;
}

}  // namespace

void SortedWindow::push(double value, std::uint64_t row) {
  pending_.emplace_back(value, static_cast<std::uint32_t>(row));
}

void SortedWindow::advance(std::uint64_t start) {
  const auto s32 = static_cast<std::uint32_t>(start);
  // Branch-free compaction: every element is copied down, and the write
  // cursor only moves past the live ones.
  std::size_t kept = 0;
  {
    double* v = values_.data();
    std::uint32_t* r = rows_.data();
    for (std::size_t i = 0; i < values_.size(); ++i) {
      v[kept] = v[i];
      r[kept] = r[i];
      kept += is_live(r[i], s32);
    }
  }
  std::size_t queued = 0;
  for (const auto& entry : pending_) {
    pending_[queued] = entry;
    queued += is_live(entry.second, s32);
  }
  pending_.resize(queued);
  std::sort(pending_.begin(), pending_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Merge from the back: the array's elements below the smallest queued
  // value never move.
  values_.resize(kept + queued);
  rows_.resize(kept + queued);
  double* v = values_.data();
  std::uint32_t* r = rows_.data();
  std::size_t i = kept;
  std::size_t out = kept + queued;
  for (std::size_t j = queued; j > 0;) {
    --out;
    if (i > 0 && v[i - 1] > pending_[j - 1].first) {
      --i;
      v[out] = v[i];
      r[out] = r[i];
    } else {
      --j;
      v[out] = pending_[j].first;
      r[out] = pending_[j].second;
    }
  }
  pending_.clear();
  // A queue that once held more rows than a window (a large delta) does
  // not keep that capacity.
  if (pending_.capacity() > values_.size()) pending_.shrink_to_fit();
}

void SortedWindow::rebuild(std::span<const double> values,
                           std::uint64_t start) {
  thread_local std::vector<std::pair<double, std::uint32_t>> order;
  order.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    order[i] = {values[i], static_cast<std::uint32_t>(start + i)};
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  values_.resize(order.size());
  rows_.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    values_[k] = order[k].first;
    rows_[k] = order[k].second;
  }
  pending_.clear();
}

void SortedWindow::clear() {
  values_.clear();
  rows_.clear();
  pending_.clear();
}

// ---------------------------------------------------------------------------
// IncrementalNodeExtractor

namespace {

/// Copies `count` consecutive ring entries starting at global index
/// `start` into `out`.
void copy_ring(std::span<const double> ring, std::uint64_t start,
               std::size_t count, double* out) {
  const std::size_t cap = ring.size();
  const std::size_t slot = static_cast<std::size_t>(start % cap);
  const std::size_t first = std::min(count, cap - slot);
  std::copy_n(ring.data() + slot, first, out);
  std::copy_n(ring.data(), count - first, out + first);
}

struct ExtremeRun {
  std::size_t first = 0, last = 0;
};

/// The smallest and largest window position (row - start, mod 2^32) in the
/// run of equal values at one end of a window's carried order: the minima
/// from the front, the maxima from the back.  That is SeriesProfile's tie
/// rule (first strict, last loose).  With `skip_first` (a counter window)
/// the entry at position 0 is skipped, because its g is not f[0]; f[0] =
/// f[1] then puts position 0 in any run that holds position 1.
ExtremeRun extreme_run(std::span<const double> values,
                       std::span<const std::uint32_t> rows,
                       std::uint32_t start, bool skip_first, bool from_back) {
  const std::size_t n = values.size();
  ExtremeRun run{n, 0};
  std::size_t head = n;  // the run's first entry scanned, once found
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = from_back ? n - 1 - i : i;
    const std::size_t pos = static_cast<std::uint32_t>(rows[k] - start);
    if (skip_first && pos == 0) continue;
    if (head == n) {
      head = k;
    } else if (values[k] != values[head]) {
      break;
    }
    run.first = std::min(run.first, pos);
    run.last = std::max(run.last, pos);
  }
  if (skip_first && run.first == 1) run.first = 0;
  return run;
}

}  // namespace

struct IncrementalNodeExtractor::MetricState {
  // Rings indexed by global row index modulo capacity.  `raw` (capacity W)
  // feeds the exact fallback; `pre` (capacity W + 1, so the retiring pair
  // is still readable) holds the streaming-cleaned value g[t]: the
  // gap-interpolated gauge value, or the first difference of the
  // gap-interpolated raws for counters.  `tainted` flags rows whose raw
  // value was non-finite (raw-indexed; written at arrival, never by gap
  // resolution).
  std::vector<double> raw;
  std::vector<double> pre;
  std::vector<std::uint8_t> tainted;
  // benford_first_digit of each pre slot's g, written at push so the
  // retiring row and the counter window's first g need no recount.
  std::vector<std::uint8_t> digit;

  // Gap resolution.  Non-finite raw rows are held out of the accumulators
  // (only their positions are remembered) until the next finite sample
  // arrives; the run is then filled with the batch linear_interpolate
  // arithmetic and pushed.  Interpolation is local — a gap's filled values
  // depend only on its two finite anchors — so every window that contains
  // the whole gap sees values bit-identical to the batch cleaning, and only
  // windows where the gap straddles the window start (left anchor expired:
  // the batch back-fill rule applies) or is still unresolved at emission
  // need the exact fallback.  While a gap is open the accumulator cursor
  // trails the raw cursor by the run length.
  bool in_gap = false;
  std::uint64_t gap_start = 0;
  double last_raw = 0.0;  // last resolved raw: gap anchor + counter diff base
  bool has_raw = false;
  std::uint64_t hard_until = 0;  // emissions with end <= this must fall back

  // The window's g values in ascending order: the one carried structure
  // whose from-scratch rebuild is super-linear.  (All linear aggregates —
  // sum, energy, successive differences — are recomputed exactly per
  // emission.)  While a rebuild is due (a fresh state, or after an exact
  // fallback) new rows are not queued: the rebuild sorts the whole window
  // from the pre ring anyway.
  SortedWindow sorted;
  bool needs_rebuild = true;

  // Rolling integer window statistics.  Bit b of peak_flags[t % W] records
  // whether position t is a strict local maximum within kPeakSupports[b]
  // neighbours on each side of the g sequence; the bit for support s is
  // written when row t + s arrives (the last neighbour it needs), so at
  // emission every position the batch extractor would count has its flag.
  // digit_counts is the Benford first-digit histogram of the window's g
  // values.  Both slide as integers — bit-exact by construction — and
  // counter windows apply the f[0] = f[1] substitution as an O(support)
  // flag recheck / O(1) digit swap at emission.
  std::vector<std::uint8_t> peak_flags;
  std::array<std::uint32_t, 9> digit_counts{};
  std::uint32_t digit_counted = 0;  // finite, non-zero g in the window
};

namespace {

/// The extractor's registry counters, resolved once per process.
struct IncrementalMetrics {
  util::Counter* windows;
  util::Counter* exact_fallbacks;

  static IncrementalMetrics& instance() {
    static IncrementalMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::global();
      IncrementalMetrics m;
      m.windows = &registry.counter("prodigy_features_incremental_windows_total");
      m.exact_fallbacks = &registry.counter(
          "prodigy_features_incremental_exact_fallbacks_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

struct IncrementalNodeExtractor::Impl {
  std::size_t cols = 0;
  IncrementalConfig config;
  FeaturePlan plan;
  std::vector<std::uint8_t> is_counter;
  std::vector<MetricState> states;
  // Window position -> index in approximate entropy's (subsampled) series,
  // kNotSampled for positions the subsample skips.
  std::vector<std::uint32_t> apen_series_index;
  std::uint64_t pushed = 0;
  IncrementalStats totals;
  bool poisoned = false;

  static constexpr std::uint32_t kNotSampled = ~std::uint32_t{0};

  void init_state(MetricState& st) const {
    const std::size_t W = config.window;
    st = MetricState();
    st.raw.assign(W, 0.0);
    st.pre.assign(W + 1, 0.0);
    st.tainted.assign(W, 0);
    st.digit.assign(W + 1, 0);
    st.peak_flags.assign(W, 0);
  }

  void push_raw(MetricState& st, std::size_t m, double x, std::uint64_t p);
  void push_resolved(MetricState& st, std::size_t m, double value,
                     std::uint64_t q);
  /// Writes one metric-window's features; returns true when it took the
  /// exact fallback.
  bool extract_metric(MetricState& st, std::size_t m, const MetricPlan& plan,
                      std::span<double> out, FeatureScratch& scratch,
                      std::uint64_t end);
};

void IncrementalNodeExtractor::Impl::push_raw(MetricState& st, std::size_t m,
                                              double x, std::uint64_t p) {
  const std::size_t W = config.window;
  const auto slot = static_cast<std::size_t>(p % W);
  st.raw[slot] = x;
  st.tainted[slot] = std::isfinite(x) ? 0 : 1;
  if (!std::isfinite(x)) {
    if (!st.in_gap) {
      st.in_gap = true;
      st.gap_start = p;
    }
    return;
  }
  if (st.in_gap) {
    // Resolve the run [gap_start, p) with the batch linear_interpolate
    // arithmetic.  The offsets below are the same small integers the batch
    // pass forms from window-relative indices, so the filled values are
    // bit-identical in any window containing both anchors.  Without a left
    // anchor (the stream opened with a gap) the batch back-fill rule
    // applies; every window where that rule could be window-dependent has
    // a tainted first row and falls back anyway.
    const double lo = st.last_raw;
    const bool anchored = st.has_raw;
    for (std::uint64_t q = st.gap_start; q < p; ++q) {
      double value = x;
      if (anchored) {
        const double t = static_cast<double>(q - st.gap_start + 1) /
                         static_cast<double>(p - st.gap_start + 1);
        value = lo + (x - lo) * t;
      }
      push_resolved(st, m, value, q);
    }
    st.in_gap = false;
  }
  push_resolved(st, m, x, p);
}

void IncrementalNodeExtractor::Impl::push_resolved(MetricState& st,
                                                   std::size_t m, double value,
                                                   std::uint64_t q) {
  const std::size_t W = config.window;
  const std::size_t cap = W + 1;
  // Row q's slot in the W + 1 rings; every other slot this push touches is
  // an offset from it (or from q's slot in the W-row flag ring).
  const auto slot = static_cast<std::size_t>(q % cap);
  if (q >= W) {
    // Retire row q - W (q - W = q + 1 mod W + 1): read everything before
    // this push overwrites slots.
    const std::size_t old = slot + 1 == cap ? 0 : slot + 1;
    if (const std::uint8_t d = st.digit[old]; d != 0) {
      --st.digit_counts[d - 1];
      --st.digit_counted;
    }
  }

  double g = is_counter[m] ? (st.has_raw ? value - st.last_raw : 0.0) : value;
  if (!std::isfinite(g)) {
    // Finite raws can still produce a non-finite g (counter diff overflow,
    // or an interpolated overflow): keep the accumulators poison-free and
    // force the exact path for every window that contains this row.
    g = 0.0;
    st.hard_until = std::max(st.hard_until, q + W);
  }
  st.last_raw = value;
  st.has_raw = true;

  st.pre[slot] = g;
  if (!st.needs_rebuild) st.sorted.push(g, q);
  const auto digit = static_cast<std::uint8_t>(benford_first_digit(g));
  st.digit[slot] = digit;
  if (digit != 0) {
    ++st.digit_counts[digit - 1];
    ++st.digit_counted;
  }

  // Peak flags: this row is the last right-neighbour position q - s needs,
  // so evaluate each support's flag there with the batch comparison rule
  // (strictly greater than every neighbour within the support radius).
  // The pre ring (capacity W + 1) still holds all 2s + 1 rows involved
  // whenever the support is usable at all (W >= 2s + 1).
  {
    const auto flag_slot = static_cast<std::size_t>(q % W);
    for (std::size_t b = 0; b < kPeakSupportCount; ++b) {
      const std::size_t s = kPeakSupports[b];
      if (W < 2 * s + 1 || q < 2 * s) continue;
      // Row t = q - s in both rings (s < W < cap).
      const std::size_t tc = slot >= s ? slot - s : slot + cap - s;
      const std::size_t tw = flag_slot >= s ? flag_slot - s : flag_slot + W - s;
      const double centre = st.pre[tc];
      bool is_peak = true;
      std::size_t li = tc, ri = tc;
      for (std::size_t k = 1; k <= s; ++k) {
        li = li == 0 ? cap - 1 : li - 1;
        ri = ri + 1 == cap ? 0 : ri + 1;
        if (centre <= st.pre[li] || centre <= st.pre[ri]) {
          is_peak = false;
          break;
        }
      }
      auto& flags = st.peak_flags[tw];
      const auto bit = static_cast<std::uint8_t>(1u << b);
      flags = static_cast<std::uint8_t>((flags & ~bit) | (is_peak ? bit : 0u));
    }
  }
}

bool IncrementalNodeExtractor::Impl::extract_metric(
    MetricState& st, std::size_t m, const MetricPlan& plan,
    std::span<double> out, FeatureScratch& scratch, std::uint64_t end) {
  const std::size_t W = config.window;
  const std::uint64_t start = end - W;
  const bool counter = is_counter[m] != 0;

  // Interior gaps interpolate identically in every window that contains
  // them, so they stay on the incremental path.  The batch cleaning is
  // window-local only at the edges: fall back exactly when (a) a gap is
  // still unresolved (its tail reaches the window end and the batch
  // forward-fill rule applies), (b) the window's first row was non-finite
  // (the gap's left anchor expired and the batch back-fill rule applies),
  // or (c) a row in the window produced a non-finite cleaned value.
  if (st.in_gap || st.tainted[static_cast<std::size_t>(start % W)] != 0 ||
      end <= st.hard_until) {
    // Run the exact batch cleaning over the raw ring (window-local, like
    // preprocess_node) and the full profile.  Bit-identical to the batch
    // path by construction.  The sorted window is not advanced here; the
    // next clean emission rebuilds it.
    scratch.column.resize(W);
    copy_ring(st.raw, start, W, scratch.column.data());
    if (config.interpolate) linear_interpolate(scratch.column);
    if (counter) counter_to_rate_inplace(scratch.column);
    compute_all_features(scratch.column, out, scratch, plan);
    st.sorted.clear();
    st.needs_rebuild = true;
    return true;
  }

  // Materialize the window's g values and bring the carried order to it:
  // advance it, or sort the window once when a rebuild is due or the
  // advanced order's size is not W (its rows do not cover the window).
  scratch.column.resize(W);
  copy_ring(st.pre, start, W, scratch.column.data());
  if (!st.needs_rebuild) {
    st.sorted.advance(start);
    st.needs_rebuild = st.sorted.size() != W;
  }
  if (st.needs_rebuild) {
    st.sorted.rebuild(scratch.column, start);
    st.needs_rebuild = false;
  }
  const std::span<const double> sorted_g = st.sorted.values();
  const std::span<const std::uint32_t> rows = st.sorted.rows();
  const auto s32 = static_cast<std::uint32_t>(start);

  // The cleaned window f.  For counters the stream keeps global diffs, so
  // only f[0] differs (the batch window-local boundary rule rates[0] =
  // rates[1]); everything read off the carried state is corrected for that
  // single element below.
  const double g_s = scratch.column[0];
  if (counter) scratch.column[0] = scratch.column[1];
  const std::span<const double> f(scratch.column.data(), W);
  const double f0 = f[0];

  // Exact linear aggregates: the same lane kernel the batch profile's
  // pass 1 uses, so every feature derived from sum/energy is bit-exact
  // against it.
  const auto se = kernels::sum_energy(f);

  SeriesProfile p;
  p.xs = f;
  p.n = W;
  p.sum = se.sum;
  p.mean = se.sum / static_cast<double>(W);
  p.variance = kernels::centered_sq_sum(f, p.mean) / static_cast<double>(W);
  p.stddev = std::sqrt(p.variance);

  // Exact pass 3 through the batch profile's kernel: f already carries the
  // counter-mode f[0] = f[1] substitution, so no boundary corrections are
  // needed and the result is bit-identical to the batch profile.
  p.abs_energy = se.energy;
  p.abs_change_sum = kernels::abs_change_sum(f);

  // Extrema: the runs at the carried order's two ends.  The values are
  // read from f at first_*, so their bits are the first occurrence's, as in
  // the batch scan (equal doubles such as -0.0 and 0.0 may differ in bits).
  {
    const ExtremeRun lo = extreme_run(sorted_g, rows, s32, counter, false);
    const ExtremeRun hi = extreme_run(sorted_g, rows, s32, counter, true);
    p.first_min = lo.first;
    p.last_min = lo.last;
    p.first_max = hi.first;
    p.last_max = hi.last;
    p.min = f[lo.first];
    p.max = f[hi.first];
  }

  // Mean-relative run statistics: the batch profile's kernel (integer
  // counts, bit-exact under any vector width).
  {
    const auto rstats = kernels::run_stats(f, p.mean);
    p.count_above = rstats.count_above;
    p.count_below = rstats.count_below;
    p.longest_above = rstats.longest_above;
    p.longest_below = rstats.longest_below;
    p.crossings = rstats.crossings;
  }

  // Order statistics read the carried array: it equals std::sort(g) over
  // the window, which is std::sort(f) for gauges and one element swap away
  // from it for counters.
  if (counter) {
    scratch.sorted.assign(sorted_g.begin(), sorted_g.end());
    const auto rm = std::lower_bound(scratch.sorted.begin(),
                                     scratch.sorted.end(), g_s);
    scratch.sorted.erase(rm);
    const auto at = std::lower_bound(scratch.sorted.begin(),
                                     scratch.sorted.end(), f0);
    scratch.sorted.insert(at, f0);
    p.sorted = scratch.sorted;
  } else {
    p.sorted = sorted_g;
  }
  p.nan_count = 0;  // untainted by definition of this path

  // Rolling integer window statistics.  The counts below are the exact
  // integers the batch extractors would tally over f: for gauges f == g on
  // the whole window; for counters only f[0] differs, which moves at most
  // one peak flag (position start + s is the only counted position with
  // start in its neighbourhood) and swaps one Benford digit.  Integer
  // counts make the derived features bit-exact, so the registry skips its
  // O(support * W) peak rescans and the digit loop.
  RollingStats rs;
  const std::size_t s0 = static_cast<std::size_t>(start % W);
  for (std::size_t b = 0; b < kPeakSupportCount; ++b) {
    const std::size_t s = kPeakSupports[b];
    std::size_t peaks = 0;
    if (W >= 2 * s + 1) {
      const auto bit = static_cast<std::uint8_t>(1u << b);
      // Ring slots (s0 + i) mod W for i in [s, W - s) form at most two
      // contiguous byte runs; tally each with the vector popcount kernel.
      const std::size_t lo = s0 + s;       // unwrapped first slot
      const std::size_t hi = s0 + W - s;   // unwrapped one-past-last slot
      const std::span<const std::uint8_t> flags(st.peak_flags);
      if (hi <= W) {
        peaks = kernels::count_flag_bits(flags.subspan(lo, hi - lo), bit);
      } else if (lo >= W) {
        peaks =
            kernels::count_flag_bits(flags.subspan(lo - W, hi - lo), bit);
      } else {
        peaks = kernels::count_flag_bits(flags.subspan(lo, W - lo), bit) +
                kernels::count_flag_bits(flags.subspan(0, hi - W), bit);
      }
      if (counter) {
        // Recheck the one flag whose neighbourhood includes f[0].
        bool is_peak = true;
        for (std::size_t k = 1; k <= s && is_peak; ++k) {
          if (f[s] <= f[s - k] || f[s] <= f[s + k]) is_peak = false;
        }
        const std::size_t slot = s0 + s < W ? s0 + s : s0 + s - W;
        const bool carried = (st.peak_flags[slot] & bit) != 0;
        if (is_peak && !carried) {
          ++peaks;
        } else if (!is_peak && carried) {
          --peaks;
        }
      }
    }
    rs.peaks[b] = static_cast<double>(peaks) / static_cast<double>(W);
  }
  std::array<std::uint32_t, 9> digits = st.digit_counts;
  std::uint32_t counted = st.digit_counted;
  if (counter) {
    const auto first = static_cast<std::size_t>(start % (W + 1));
    if (const std::uint8_t d = st.digit[first]; d != 0) {
      --digits[d - 1];
      --counted;
    }
    if (const int d = benford_first_digit(f0); d != 0) {
      ++digits[static_cast<std::size_t>(d - 1)];
      ++counted;
    }
  }
  rs.benford = benford_correlation_from_counts(digits, counted);

  // Approximate entropy's dim-1 template order, filtered out of the carried
  // order in one branch-free pass: each (value, row) maps through the
  // window position to its series index, and only the templates survive —
  // positions the subsample skips, the last kApEnDim - 1 series positions,
  // and (counters) position 0, whose g is not f[0], drop out.  The
  // counter's f[0] then goes back in at its sorted place.  Ties may land in
  // any order; the match counts do not depend on it.  Skipped when the plan
  // does not read approximate entropy (its registry group is skipped too).
  if (plan.approximate_entropy) {
    static_assert(kApEnDim <= 2, "W >= 2 must leave a template");
    const auto templates = static_cast<std::uint32_t>(
        std::min(W, kApEnMaxPoints) - kApEnDim + 1);
    const std::uint32_t skip = counter ? 1 : 0;
    scratch.apen_values.resize(W + 1);
    scratch.apen_index.resize(W + 1);
    double* ov = scratch.apen_values.data();
    std::uint32_t* oi = scratch.apen_index.data();
    const std::uint32_t* series_index = apen_series_index.data();
    std::size_t kept = 0;
    for (std::size_t b = 0; b < W; ++b) {
      const std::uint32_t idx =
          series_index[static_cast<std::uint32_t>(rows[b] - s32)];
      ov[kept] = sorted_g[b];
      oi[kept] = idx;
      kept += (idx - skip) < (templates - skip) ? 1 : 0;
    }
    if (counter) {
      const std::size_t at = static_cast<std::size_t>(
          std::lower_bound(ov, ov + kept, f0) - ov);
      std::copy_backward(ov + at, ov + kept, ov + kept + 1);
      std::copy_backward(oi + at, oi + kept, oi + kept + 1);
      ov[at] = f0;
      oi[at] = 0;
      ++kept;
    }
    rs.has_apen_order = true;
    rs.apen_values = {ov, kept};
    rs.apen_index = {oi, kept};
  }
  p.rolling = &rs;

  if (plan.spectrum) {
    power_spectrum(f, scratch.fft, scratch.power);
    p.power = scratch.power;
    p.spectral =
        spectral_summary_from_power(scratch.power, plan.spectral_entropy);
  }

  p.trend = linear_trend(f);

  compute_features_from_profile(p, out, plan);
  return false;
}

IncrementalNodeExtractor::IncrementalNodeExtractor(
    std::size_t cols, std::vector<ColumnKind> kinds, IncrementalConfig config,
    FeaturePlan plan)
    : impl_(std::make_unique<Impl>()) {
  if (cols == 0) {
    throw std::invalid_argument("IncrementalNodeExtractor: cols must be > 0");
  }
  if (config.window < 2 || config.hop == 0) {
    throw std::invalid_argument(
        "IncrementalNodeExtractor: window must be >= 2 and hop >= 1");
  }
  Impl& im = *impl_;
  im.cols = cols;
  im.config = config;
  im.plan = std::move(plan);
  im.is_counter.assign(cols, 0);
  for (std::size_t m = 0; m < cols && m < kinds.size(); ++m) {
    im.is_counter[m] =
        (config.diff_counters && kinds[m] == ColumnKind::kCounter) ? 1 : 0;
  }

  im.states.resize(cols);
  for (auto& st : im.states) im.init_state(st);

  const std::size_t W = config.window;
  im.apen_series_index.assign(W, Impl::kNotSampled);
  for (std::size_t i = 0; i < std::min(W, kApEnMaxPoints); ++i) {
    im.apen_series_index[apen_sample_position(i, W)] =
        static_cast<std::uint32_t>(i);
  }
}

IncrementalNodeExtractor::~IncrementalNodeExtractor() = default;

bool IncrementalNodeExtractor::absorb_and_extract(const tensor::Matrix& delta,
                                                  std::span<double> out) {
  Impl& im = *impl_;
  if (im.poisoned) {
    throw std::logic_error(
        "IncrementalNodeExtractor: a previous absorb failed mid-update; "
        "reset() before feeding more rows");
  }
  if (delta.cols() != im.cols) {
    throw std::invalid_argument("IncrementalNodeExtractor: delta width " +
                                std::to_string(delta.cols()) + " != " +
                                std::to_string(im.cols));
  }
  const std::size_t per_metric = features_per_metric();
  if (out.size() != im.cols * per_metric) {
    throw std::invalid_argument(
        "IncrementalNodeExtractor: bad output size");
  }

  const std::size_t rows = delta.rows();
  const std::uint64_t base = im.pushed;
  const std::uint64_t end = base + rows;
  const bool emit = end >= im.config.window;

  // This emission's exact fallbacks, tallied as they happen.
  std::atomic<std::uint32_t> fallbacks{0};

  // Any exception below leaves some metrics half-absorbed; poison the
  // extractor so the caller must reset() (and refill) before continuing.
  im.poisoned = true;
  util::parallel_for(0, im.cols, [&](std::size_t m) {
    const MetricPlan& plan = im.plan.metric(m);
    const std::span<double> metric_out =
        out.subspan(m * per_metric, per_metric);
    if (!plan.any) {
      // Nothing of this metric is read: skip its rows and its extraction.
      if (emit) std::fill(metric_out.begin(), metric_out.end(), 0.0);
      return;
    }
    thread_local FeatureScratch scratch;
    MetricState& st = im.states[m];
    for (std::size_t r = 0; r < rows; ++r) {
      im.push_raw(st, m, delta(r, m), base + r);
    }
    if (emit && im.extract_metric(st, m, plan, metric_out, scratch, end)) {
      fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  });
  im.pushed = end;
  im.poisoned = false;

  if (emit) {
    const std::uint32_t n_fallbacks = fallbacks.load(std::memory_order_relaxed);
    ++im.totals.windows;
    im.totals.exact_fallbacks += n_fallbacks;
    const IncrementalMetrics& metrics = IncrementalMetrics::instance();
    metrics.windows->increment();
    if (n_fallbacks > 0) metrics.exact_fallbacks->increment(n_fallbacks);
  }
  return emit;
}

void IncrementalNodeExtractor::reset() {
  Impl& im = *impl_;
  for (auto& st : im.states) im.init_state(st);
  im.pushed = 0;
  im.poisoned = false;
}

std::size_t IncrementalNodeExtractor::cols() const noexcept {
  return impl_->cols;
}

std::size_t IncrementalNodeExtractor::window() const noexcept {
  return impl_->config.window;
}

bool IncrementalNodeExtractor::window_complete() const noexcept {
  return impl_->pushed >= impl_->config.window;
}

IncrementalStats IncrementalNodeExtractor::stats() const {
  return impl_->totals;
}

}  // namespace prodigy::features
