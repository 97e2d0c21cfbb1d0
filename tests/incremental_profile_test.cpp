// Incremental-vs-full parity: the rolling IncrementalNodeExtractor must
// reproduce the batch single-pass engine (series_preprocess cleaning +
// compute_all_features) over long replays, bit-exactly for every feature.
#include "features/incremental_profile.hpp"

#include "features/registry.hpp"
#include "features/series_preprocess.hpp"
#include "features/series_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace {

using namespace prodigy;
using features::ColumnKind;
using features::IncrementalConfig;
using features::IncrementalNodeExtractor;
using features::SortedWindow;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// SortedWindow

/// Checks a SortedWindow against the live rows [start, end) of `history`
/// (history[i] is the value pushed for row first_row + i): the values equal
/// std::sort of the live values, the rows are a permutation of the live
/// rows, and every value is bit-for-bit the one pushed for its row.
void expect_window_matches(const SortedWindow& window,
                           const std::vector<double>& history,
                           std::uint64_t first_row, std::uint64_t start,
                           std::uint64_t end) {
  ASSERT_EQ(window.size(), end - start);
  const auto values = window.values();
  const auto rows = window.rows();
  ASSERT_EQ(rows.size(), values.size());

  std::vector<double> want(history.begin() + (start - first_row),
                           history.begin() + (end - first_row));
  std::sort(want.begin(), want.end());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(values[k], want[k]) << "rank " << k;
  }

  // Rows are the low 32 bits of the global row: compare their offsets from
  // the window start, which recover the full row.
  const auto s32 = static_cast<std::uint32_t>(start);
  std::vector<std::uint32_t> offsets(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    offsets[k] = static_cast<std::uint32_t>(rows[k] - s32);
  }
  std::vector<std::uint32_t> sorted_offsets = offsets;
  std::sort(sorted_offsets.begin(), sorted_offsets.end());
  for (std::size_t k = 0; k < sorted_offsets.size(); ++k) {
    ASSERT_EQ(sorted_offsets[k], k);
  }

  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::uint64_t row = start + offsets[k];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(values[k]),
              std::bit_cast<std::uint64_t>(history[row - first_row]))
        << "rank " << k << " row " << row;
  }
}

/// Values that stress ordering: heavy duplicates, both signed zeros,
/// subnormals, and magnitudes near the top of the double range.
double hard_value(std::mt19937_64& rng) {
  static constexpr double kPool[] = {
      0.0, -0.0, 1.0, -1.0, 0.25, 0.25, 3.5, -3.5,
      1e300, -1e300, std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  std::normal_distribution<double> normal(0.0, 4.0);
  if (rng() % 3 == 0) return normal(rng);
  return kPool[rng() % std::size(kPool)];
}

TEST(SortedWindowTest, FuzzMatchesMultiset) {
  std::mt19937_64 rng(7);
  // Start just below 2^32 so the 32-bit rows wrap mid-run.
  const std::uint64_t first_row = (std::uint64_t{1} << 32) - 3000;
  std::vector<double> history;
  SortedWindow window;
  std::uint64_t start = first_row;
  std::uint64_t end = first_row;
  for (int step = 0; step < 4000; ++step) {
    // A hop: push a burst (sometimes longer than the window, so some rows
    // expire before they are ever merged), then slide the start.
    const std::size_t burst = rng() % 8 == 0 ? rng() % 300 : rng() % 24;
    for (std::size_t i = 0; i < burst; ++i) {
      history.push_back(hard_value(rng));
      window.push(history.back(), end++);
    }
    const std::uint64_t width = 1 + rng() % 200;
    start = std::max(start, end > width ? end - width : first_row);
    window.advance(start);
    expect_window_matches(window, history, first_row, start, end);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(end, std::uint64_t{1} << 32);  // the wrap was exercised
}

TEST(SortedWindowTest, RebuildAndCopyReproduceStdSort) {
  std::mt19937_64 rng(11);
  std::vector<double> history(513);
  for (auto& v : history) v = hard_value(rng);
  const std::uint64_t first_row = 1000;
  SortedWindow window;
  window.rebuild(history, first_row);
  expect_window_matches(window, history, first_row, first_row,
                        first_row + history.size());

  // A rebuilt window carries forward like a merged one: queued rows are
  // merged and expired rows drop, and a rebuild discards the queue.
  std::uint64_t end = first_row + history.size();
  for (int hop = 0; hop < 50; ++hop) {
    for (int i = 0; i < 16; ++i) {
      history.push_back(hard_value(rng));
      window.push(history.back(), end++);
    }
    window.advance(end - 513);
    expect_window_matches(window, history, first_row, end - 513, end);
    if (HasFatalFailure()) return;
  }
  window.push(1.0, end);
  window.rebuild(std::span(history).subspan(history.size() - 64), end - 64);
  expect_window_matches(window, history, first_row, end - 64, end);
  window.clear();
  EXPECT_EQ(window.size(), 0u);
}

// ---------------------------------------------------------------------------
// Replay parity harness

/// Synthetic 4-column telemetry: a noisy gauge, a cumulative counter, a
/// constant, and a mostly-zero spiky gauge.
tensor::Matrix make_replay(std::size_t rows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  tensor::Matrix m(rows, 4);
  double walk = 10.0;
  double counter = 1000.0;
  for (std::size_t r = 0; r < rows; ++r) {
    walk += noise(rng) * 0.5;
    counter += 2.0 + std::abs(noise(rng));
    m.at(r, 0) = walk;
    m.at(r, 1) = counter;
    m.at(r, 2) = 0.1;
    m.at(r, 3) = uni(rng) < 0.05 ? 25.0 + noise(rng) : 0.0;
  }
  return m;
}

std::vector<ColumnKind> replay_kinds() {
  return {ColumnKind::kGauge, ColumnKind::kCounter, ColumnKind::kGauge,
          ColumnKind::kGauge};
}

/// Batch oracle for one (window, metric): window-local cleaning exactly as
/// pipeline::preprocess_node does it, then the single-pass engine.
void oracle_features(const tensor::Matrix& data, std::size_t start,
                     std::size_t window, std::size_t col, bool counter,
                     std::span<double> out) {
  std::vector<double> series(window);
  for (std::size_t r = 0; r < window; ++r) series[r] = data.at(start + r, col);
  features::linear_interpolate(series);
  if (counter) features::counter_to_rate_inplace(series);
  features::FeatureScratch scratch;
  features::compute_all_features(series, out, scratch);
}

/// Bit-exact on every feature.
void expect_window_parity(std::span<const double> got,
                          std::span<const double> want,
                          std::size_t window_no, std::size_t col) {
  const auto& defs = features::feature_registry();
  const std::size_t per_metric = features::features_per_metric();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size() % per_metric, 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << defs[i % per_metric].name << " window "
                               << window_no << " col " << col;
  }
}

struct ReplayResult {
  std::size_t windows = 0;
  features::IncrementalStats stats;
};

/// Streams `data` through an extractor hop by hop and checks every emitted
/// window against the batch oracle.
ReplayResult run_parity_replay(const tensor::Matrix& data,
                               IncrementalConfig config) {
  const std::size_t cols = data.cols();
  const auto kinds = replay_kinds();
  IncrementalNodeExtractor extractor(cols, kinds, config);
  const std::size_t per_metric = features::features_per_metric();
  std::vector<double> got(cols * per_metric);
  std::vector<double> want(cols * per_metric);

  ReplayResult result;
  std::size_t fed = 0;
  while (fed < data.rows()) {
    const std::size_t chunk = fed == 0
                                  ? config.window
                                  : std::min(config.hop, data.rows() - fed);
    if (fed + chunk > data.rows()) break;
    const tensor::Matrix delta = data.slice_rows(fed, chunk);
    const bool emitted = extractor.absorb_and_extract(delta, got);
    fed += chunk;
    EXPECT_EQ(emitted, fed >= config.window) << "at row " << fed;
    if (!emitted) continue;
    const std::size_t start = fed - config.window;
    for (std::size_t c = 0; c < cols; ++c) {
      oracle_features(data, start, config.window, c,
                      kinds[c] == ColumnKind::kCounter,
                      std::span(want).subspan(c * per_metric, per_metric));
      expect_window_parity(
          std::span(got).subspan(c * per_metric, per_metric),
          std::span(want).subspan(c * per_metric, per_metric),
          result.windows, c);
    }
    ++result.windows;
  }
  result.stats = extractor.stats();
  EXPECT_EQ(result.stats.windows, result.windows);
  return result;
}

TEST(IncrementalParityTest, LongReplayFftPath) {
  // W=64, H=64: tumbling windows share no rows.
  IncrementalConfig config;
  config.window = 64;
  config.hop = 64;
  const auto data = make_replay(64 + 210 * 64, 101);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 200u);
  EXPECT_EQ(result.stats.exact_fallbacks, 0u);
}

TEST(IncrementalParityTest, LongReplaySlidingDftPath) {
  // W=64, H=4: consecutive windows share 60 of 64 rows.
  IncrementalConfig config;
  config.window = 64;
  config.hop = 4;
  const auto data = make_replay(64 + 210 * 4, 202);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 200u);
}

TEST(IncrementalParityTest, NonPowerOfTwoWindow) {
  IncrementalConfig config;
  config.window = 100;
  config.hop = 10;
  const auto data = make_replay(100 + 205 * 10, 303);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 200u);
}

TEST(IncrementalParityTest, LargeWindowSlidingDft) {
  // The deep-window shape: W=1024, H=16.  Shorter replay: each hop still
  // exercises retire/add across the full ring.
  IncrementalConfig config;
  config.window = 1024;
  config.hop = 16;
  const auto data = make_replay(1024 + 80 * 16, 404);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 80u);
}

// Windows longer than approximate entropy's 256-point subsample whose
// stride W / 256 is not an integer, so the window-position -> series-index
// map that filters the carried order skips irregularly.
TEST(IncrementalParityTest, SubsampledWindow257) {
  IncrementalConfig config;
  config.window = 257;
  config.hop = 16;
  const auto data = make_replay(257 + 90 * 16, 808);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 90u);
}

TEST(IncrementalParityTest, SubsampledWindow300) {
  IncrementalConfig config;
  config.window = 300;
  config.hop = 7;
  const auto data = make_replay(300 + 150 * 7, 909);
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 150u);
}

TEST(IncrementalParityTest, SubsampledWindowNaNGaps) {
  // NaN gaps at W=300: fallback windows, then the rebuild of the carried
  // order at the first clean window after them.
  IncrementalConfig config;
  config.window = 300;
  config.hop = 16;
  auto data = make_replay(300 + 100 * 16, 1010);
  for (std::size_t r = 450; r < 455; ++r) data.at(r, 0) = kNaN;
  data.at(700, 1) = kNaN;
  for (std::size_t r = 1200; r < 1203; ++r) data.at(r, 3) = kNaN;
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 100u);
  EXPECT_GT(result.stats.exact_fallbacks, 0u);
}

TEST(IncrementalParityTest, NaNRowsFallBackToExactWindows) {
  IncrementalConfig config;
  config.window = 64;
  config.hop = 16;
  auto data = make_replay(64 + 205 * 16, 505);
  // NaN bursts in the gauge and the counter: every window containing one
  // must fall back to the exact batch computation (and therefore stay
  // bit-exact, which run_parity_replay's oracle asserts — the oracle
  // cleaning interpolates the same gaps).
  for (std::size_t r = 200; r < 206; ++r) data.at(r, 0) = kNaN;
  data.at(400, 1) = kNaN;
  data.at(1000, 3) = kNaN;
  const auto result = run_parity_replay(data, config);
  EXPECT_GE(result.windows, 200u);
  EXPECT_GT(result.stats.exact_fallbacks, 0u);
}

TEST(IncrementalParityTest, ResetRefillsBeforeEmitting) {
  IncrementalConfig config;
  config.window = 64;
  config.hop = 16;
  const auto kinds = replay_kinds();
  const auto data = make_replay(64 + 8 * 16, 707);
  IncrementalNodeExtractor extractor(data.cols(), kinds, config);
  const std::size_t per_metric = features::features_per_metric();
  std::vector<double> got(data.cols() * per_metric);
  std::vector<double> want(data.cols() * per_metric);

  EXPECT_FALSE(extractor.window_complete());
  ASSERT_TRUE(extractor.absorb_and_extract(data.slice_rows(0, 64), got));
  EXPECT_TRUE(extractor.window_complete());

  extractor.reset();
  EXPECT_FALSE(extractor.window_complete());
  // Refill with hop-sized deltas: no emission until a full window is back.
  std::size_t fed = 64;
  for (int hop = 0; hop < 3; ++hop) {
    EXPECT_FALSE(
        extractor.absorb_and_extract(data.slice_rows(fed, 16), got));
    fed += 16;
  }
  ASSERT_TRUE(extractor.absorb_and_extract(data.slice_rows(fed, 16), got));
  fed += 16;
  // The refilled window is the last 64 rows fed since the reset.
  for (std::size_t c = 0; c < data.cols(); ++c) {
    oracle_features(data, fed - 64, 64, c, kinds[c] == ColumnKind::kCounter,
                    std::span(want).subspan(c * per_metric, per_metric));
    expect_window_parity(std::span(got).subspan(c * per_metric, per_metric),
                         std::span(want).subspan(c * per_metric, per_metric),
                         0, c);
  }
}

TEST(IncrementalParityTest, RejectsMalformedInput) {
  IncrementalConfig config;
  config.window = 8;
  config.hop = 2;
  IncrementalNodeExtractor extractor(2, {}, config);
  std::vector<double> out(2 * features::features_per_metric());
  EXPECT_THROW(extractor.absorb_and_extract(tensor::Matrix(4, 3), out),
               std::invalid_argument);
  std::vector<double> bad(3);
  EXPECT_THROW(extractor.absorb_and_extract(tensor::Matrix(4, 2), bad),
               std::invalid_argument);
  EXPECT_THROW(IncrementalNodeExtractor(0, {}, config), std::invalid_argument);
  IncrementalConfig tiny;
  tiny.window = 1;
  EXPECT_THROW(IncrementalNodeExtractor(2, {}, tiny), std::invalid_argument);
}

}  // namespace
