// Pins the arithmetic the end-to-end benchmark's numbers rest on.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace prodigy::bench::e2e {
namespace {

TEST(NearestRank, PicksTheCeilRank) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(nearest_rank(v, 0.5), 5.0);   // rank ceil(5.0) = 5
  EXPECT_EQ(nearest_rank(v, 0.51), 6.0);  // rank ceil(5.1) = 6
  EXPECT_EQ(nearest_rank(v, 0.9), 9.0);
  EXPECT_EQ(nearest_rank(v, 0.99), 10.0);
  EXPECT_EQ(nearest_rank(v, 0.0), 1.0);   // clamped to rank 1
  EXPECT_EQ(nearest_rank(v, 1.0), 10.0);
}

TEST(NearestRank, EmptyAndSingleton) {
  EXPECT_EQ(nearest_rank(std::vector<double>{}, 0.5), 0.0);
  EXPECT_EQ(nearest_rank(std::vector<double>{7.0}, 0.99), 7.0);
}

TEST(NearestRank, ExactRanksAreNotBumpedByRounding) {
  // 0.99 * 100 is 98.99999999999999 or 99.00000000000001 depending on the
  // operation order; either way the rank is 99.
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_EQ(nearest_rank(v, 0.99), 99.0);
  EXPECT_EQ(nearest_rank(v, 0.5), 50.0);
}

TEST(SupportedPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_EQ(highest_supported_percentile(9999), 0.99);
  EXPECT_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(highest_supported_percentile(999), 0.9);
  EXPECT_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_EQ(highest_supported_percentile(99), 0.5);
  EXPECT_EQ(highest_supported_percentile(0), 0.5);
}

TEST(Quartiles, MatchesPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.spread(), (8.25 - 2.75) / 5.5);
}

TEST(Quartiles, FiveRunsAndTinySamples) {
  // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
  const Quartiles five = quartiles({3, 1, 100, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 52.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the clamped
  // neighbour index extrapolates, exactly like Python.
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  const Quartiles one = quartiles({4});
  EXPECT_EQ(one.median, 4.0);
  EXPECT_EQ(one.spread(), 0.0);
  EXPECT_EQ(quartiles({}).spread(), 0.0);
}

TEST(Schedule, DueTimesDoNotDrift) {
  const Schedule s{1'000'000'000, 300.0};
  EXPECT_EQ(s.due_ns(0), 1'000'000'000);
  EXPECT_EQ(s.due_ns(3), 1'010'000'000);  // 3 ticks at 300/s = 10 ms
  // Three million ticks (10,000 s) later it is still exact to the nanosecond.
  EXPECT_EQ(s.due_ns(3'000'000), 1'000'000'000 + 10'000'000'000'000LL);
  EXPECT_EQ(s.due_ns(3'000'001) - s.due_ns(3'000'000), 3'333'333);
  EXPECT_EQ(s.late_ns(3, 1'010'000'500), 500);
  EXPECT_EQ(s.late_ns(3, 1'009'000'000), 0);  // early is not late
}

TEST(Schedule, WindowArithmetic) {
  // W=64, H=16: the first window completes on row 63, then every 16 rows.
  EXPECT_EQ(windows_after(63, 64, 16), 0u);
  EXPECT_EQ(windows_after(64, 64, 16), 1u);
  EXPECT_EQ(windows_after(79, 64, 16), 1u);
  EXPECT_EQ(windows_after(80, 64, 16), 2u);
  EXPECT_EQ(window_last_row(0, 64, 16), 63u);
  EXPECT_EQ(window_last_row(2, 64, 16), 95u);
  // Every window counted by windows_after(n) ends before row n.
  for (std::uint64_t n = 0; n < 300; ++n) {
    const std::uint64_t k = windows_after(n, 64, 16);
    if (k > 0) {
      EXPECT_LT(window_last_row(k - 1, 64, 16), n);
    }
    EXPECT_GE(window_last_row(k, 64, 16), n);
  }
}

TEST(Slo, MissingCountsAsMiss) {
  const std::vector<std::optional<double>> latencies = {1.0, 5.0, std::nullopt, 2.0,
                                                        std::nullopt, 3.0};
  const SloCount slo = count_slo(latencies, 2.5);
  EXPECT_EQ(slo.scheduled, 6u);
  EXPECT_EQ(slo.missing, 2u);
  EXPECT_EQ(slo.late, 2u);  // 5.0 and 3.0; 2.5 itself would be on time
  EXPECT_EQ(slo.misses(), 4u);
  EXPECT_DOUBLE_EQ(slo.miss_frac(), 4.0 / 6.0);
  EXPECT_EQ(count_slo({}, 1.0).miss_frac(), 0.0);
}

}  // namespace
}  // namespace prodigy::bench::e2e
