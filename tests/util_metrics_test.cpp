#include "util/metrics.hpp"

#include "util/lru_cache.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace prodigy::util {
namespace {

TEST(MetricsTest, CounterConcurrentIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter("requests_total").increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("requests_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, GaugeSetAddMax) {
  Gauge gauge;
  gauge.set(3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.add(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.5);
  gauge.update_max(4.0);  // below current -> no change
  EXPECT_DOUBLE_EQ(gauge.value(), 5.5);
  gauge.update_max(9.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 9.0);
}

TEST(MetricsTest, HistogramQuantilesOnKnownData) {
  Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.observe(static_cast<double>(i));
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.p50, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95, 95.0);
  EXPECT_DOUBLE_EQ(snap.p99, 99.0);
}

TEST(MetricsTest, HistogramBoundedMemoryKeepsRecentWindow) {
  Histogram histogram(64);
  for (int i = 0; i < 100000; ++i) histogram.observe(1.0);
  for (int i = 0; i < 64; ++i) histogram.observe(5.0);  // fills the window
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100064u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);  // min/max cover every observation
  EXPECT_DOUBLE_EQ(snap.max, 5.0);
  EXPECT_DOUBLE_EQ(snap.p50, 5.0);  // quantiles follow the recent window
}

TEST(MetricsTest, HistogramConcurrentObserves) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kObservations; ++i) {
        registry.histogram("latency_seconds").observe(0.001 * (i % 10));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snap = registry.histogram("latency_seconds").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kObservations);
}

// The deployment request path updates counters and histograms from pool
// workers (parallel_for fan-out), not just raw std::threads — exercise
// exactly that path.
TEST(MetricsTest, CounterAndHistogramUpdatesFromThreadPool) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  parallel_for(pool, 0, kTasks, [&registry](std::size_t i) {
    registry.counter("pool_events_total").increment();
    registry.histogram("pool_latency_seconds").observe(0.001 * (i % 16));
    registry.gauge("pool_high_water").update_max(static_cast<double>(i));
  });
  EXPECT_EQ(registry.counter("pool_events_total").value(), kTasks);
  const auto snap = registry.histogram("pool_latency_seconds").snapshot();
  EXPECT_EQ(snap.count, kTasks);
  EXPECT_DOUBLE_EQ(registry.gauge("pool_high_water").value(),
                   static_cast<double>(kTasks - 1));
}

TEST(LruCacheTest, HitMissEvictionCountersAndOrder) {
  MetricsRegistry registry;
  auto& hits = registry.counter("cache_hits_total");
  auto& misses = registry.counter("cache_misses_total");
  auto& evictions = registry.counter("cache_evictions_total");
  LruCache<int, std::string> cache(2, &hits, &misses, &evictions);

  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(misses.value(), 1u);

  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1).value(), "one");  // 1 becomes most-recent
  EXPECT_EQ(hits.value(), 1u);

  cache.put(3, "three");  // evicts 2 (least-recently-used)
  EXPECT_EQ(evictions.value(), 1u);
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), "one");
  EXPECT_EQ(cache.get(3).value(), "three");
  EXPECT_EQ(cache.size(), 2u);

  cache.put(3, "III");  // refresh in place, no eviction
  EXPECT_EQ(cache.get(3).value(), "III");
  EXPECT_EQ(evictions.value(), 1u);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int, int> cache(0);
  cache.put(1, 10);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(LruCacheTest, SetCapacityShrinksAndEvicts) {
  MetricsRegistry registry;
  auto& evictions = registry.counter("cache_evictions_total");
  LruCache<int, int> cache(4, nullptr, nullptr, &evictions);
  for (int i = 0; i < 4; ++i) cache.put(i, i * 10);
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(evictions.value(), 3u);
  EXPECT_EQ(cache.get(3).value(), 30);  // most recent survives
}

TEST(LruCacheTest, ConcurrentGetPutFromPoolIsConsistent) {
  MetricsRegistry registry;
  auto& hits = registry.counter("cache_hits_total");
  auto& misses = registry.counter("cache_misses_total");
  LruCache<int, int> cache(16, &hits, &misses, nullptr);
  ThreadPool pool(4);
  constexpr std::size_t kOps = 4000;
  parallel_for(pool, 0, kOps, [&cache](std::size_t i) {
    const int key = static_cast<int>(i % 32);
    if (const auto value = cache.get(key)) {
      // Values are keyed deterministically, so a hit can never be torn.
      ASSERT_EQ(*value, key * 7);
    } else {
      cache.put(key, key * 7);
    }
  });
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(hits.value() + misses.value(), kOps);
}

TEST(MetricsTest, KindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("shared_name");
  EXPECT_THROW(registry.gauge("shared_name"), std::logic_error);
  EXPECT_THROW(registry.histogram("shared_name"), std::logic_error);
  EXPECT_NO_THROW(registry.counter("shared_name"));
}

TEST(MetricsTest, NameSanitization) {
  EXPECT_EQ(MetricsRegistry::sanitize_name("pipeline.preprocess/stage-1"),
            "pipeline_preprocess_stage_1");
  EXPECT_EQ(MetricsRegistry::sanitize_name("9lives"), "_9lives");
  MetricsRegistry registry;
  registry.counter("a.b").increment(7);
  // Dotted and underscored spellings address the same metric.
  EXPECT_EQ(registry.counter("a_b").value(), 7u);
}

// Parses Prometheus text: every non-comment line is "name[{labels}] value",
// every metric has exactly one # TYPE line, and no duplicates exist.
TEST(MetricsTest, PrometheusExportParses) {
  MetricsRegistry registry;
  registry.counter("events_total").increment(3);
  registry.gauge("queue_depth").set(4.5);
  for (int i = 1; i <= 10; ++i) {
    registry.histogram("stage_seconds").observe(0.1 * i);
  }
  const std::string text = registry.to_prometheus();

  std::map<std::string, int> type_lines;
  std::set<std::string> sample_names;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      ++type_lines[name];
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    const auto brace = name.find('{');
    const bool labeled = brace != std::string::npos;
    if (labeled) name = name.substr(0, brace);
    // Quantile samples share their summary's name; plain samples are unique.
    if (!labeled) {
      EXPECT_TRUE(sample_names.insert(name).second)
          << "duplicate sample " << name;
    }
  }
  ASSERT_EQ(type_lines.size(), 3u);
  for (const auto& [name, count] : type_lines) {
    EXPECT_EQ(count, 1) << "duplicate # TYPE for " << name;
  }
  EXPECT_TRUE(type_lines.contains("events_total"));
  EXPECT_TRUE(type_lines.contains("queue_depth"));
  EXPECT_TRUE(type_lines.contains("stage_seconds"));
  EXPECT_TRUE(sample_names.contains("stage_seconds_sum"));
  EXPECT_TRUE(sample_names.contains("stage_seconds_count"));
}

TEST(MetricsTest, JsonExportContainsSections) {
  MetricsRegistry registry;
  registry.counter("events_total").increment(3);
  registry.gauge("queue_depth").set(4.5);
  registry.histogram("stage_seconds").observe(0.25);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"stage_seconds\": {\"count\": 1"), std::string::npos);
  // Balanced braces (cheap structural sanity check).
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsTest, WriteFilePicksFormatByExtension) {
  MetricsRegistry registry;
  registry.counter("events_total").increment(1);
  const auto dir = std::filesystem::temp_directory_path();
  const auto json_path = (dir / "prodigy_metrics_test.json").string();
  const auto prom_path = (dir / "prodigy_metrics_test.prom").string();
  registry.write_file(json_path);
  registry.write_file(prom_path);

  std::ifstream json_file(json_path);
  std::string json((std::istreambuf_iterator<char>(json_file)),
                   std::istreambuf_iterator<char>());
  std::ifstream prom_file(prom_path);
  std::string prom((std::istreambuf_iterator<char>(prom_file)),
                   std::istreambuf_iterator<char>());
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());

  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(prom.rfind("# TYPE", 0), 0u);
}

TEST(MetricsTest, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.counter("events_total").increment(5);
  registry.reset();
  EXPECT_EQ(registry.counter("events_total").value(), 0u);
}

// Hot paths resolve their metrics once (the thread pool, ingest, DSOS,
// extractor, bus and scorer handles), so a reset must zero metrics in place
// rather than free them under those references.
TEST(MetricsTest, ResetKeepsEarlierReferencesValid) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("events_total");
  Gauge& gauge = registry.gauge("queue_depth");
  Histogram& histogram = registry.histogram("latency_seconds");
  counter.increment(5);
  gauge.set(3.0);
  histogram.observe(0.25);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.snapshot().count, 0u);

  counter.increment(2);
  gauge.set(4.0);
  histogram.observe(0.5);
  EXPECT_EQ(&registry.counter("events_total"), &counter);
  EXPECT_EQ(registry.counter("events_total").value(), 2u);
  EXPECT_EQ(registry.gauge("queue_depth").value(), 4.0);
  const HistogramSnapshot snap = registry.histogram("latency_seconds").snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 0.5);
}

TEST(StageTimerTest, RecordsIntoGlobalRegistryAndSink) {
  auto& histogram = MetricsRegistry::global().histogram(
      "prodigy_stage_test_stage_tracer_seconds");
  const auto before = histogram.snapshot().count;
  double sink = -1.0;
  {
    StageTimer timer("test.stage.tracer", &sink);
  }
  EXPECT_EQ(histogram.snapshot().count, before + 1);
  EXPECT_GE(sink, 0.0);
}

TEST(StageTimerTest, ResolvedHistogramRecordsLikeTheNamedStage) {
  Histogram& histogram = stage_histogram("test.stage.resolved");
  EXPECT_EQ(&histogram, &MetricsRegistry::global().histogram(
                            "prodigy_stage_test_stage_resolved_seconds"));
  const auto before = histogram.snapshot().count;
  double sink = -1.0;
  {
    StageTimer timer(histogram, "test.stage.resolved", &sink);
  }
  { StageTimer timer("test.stage.resolved"); }
  EXPECT_EQ(histogram.snapshot().count, before + 2);
  EXPECT_GE(sink, 0.0);
}

TEST(StageTimerTest, StopIsIdempotent) {
  auto& histogram = MetricsRegistry::global().histogram(
      "prodigy_stage_test_stage_idempotent_seconds");
  const auto before = histogram.snapshot().count;
  StageTimer timer("test.stage.idempotent");
  const double first = timer.stop();
  const double second = timer.stop();
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(histogram.snapshot().count, before + 1);  // destructor adds nothing
}

}  // namespace
}  // namespace prodigy::util
