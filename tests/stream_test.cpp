// Streaming building blocks: SampleBatch framing, the sliding-window ring
// buffer, and the debounced alert bus.
#include "stream/event_bus.hpp"
#include "stream/sample_batch.hpp"
#include "stream/window.hpp"
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace prodigy;

// ---------------------------------------------------------------------------
// SampleBatch framing

stream::SampleBatch make_batch(std::uint64_t sequence, std::size_t rows,
                               std::size_t cols) {
  stream::SampleBatch batch;
  batch.sequence = sequence;
  for (std::size_t r = 0; r < rows; ++r) {
    stream::SampleRow row;
    row.job_id = 42;
    row.component_id = static_cast<std::int64_t>(100 + r);
    row.timestamp = static_cast<std::int64_t>(sequence);
    row.app = "LAMMPS";
    for (std::size_t c = 0; c < cols; ++c) {
      row.values.push_back(static_cast<double>(sequence * 1000 + r * 10 + c));
    }
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

TEST(SampleBatchTest, MultiFrameFileRoundTrips) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "prodigy_sample_batch_test.bin")
                        .string();
  std::vector<stream::SampleBatch> written;
  {
    util::BinaryWriter writer(path);
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
      written.push_back(make_batch(seq, /*rows=*/3, /*cols=*/4));
      written.back().write_frame(writer);
    }
  }

  util::BinaryReader reader(path);
  std::vector<stream::SampleBatch> read;
  while (!reader.at_end()) {
    read.push_back(stream::SampleBatch::read_frame(reader));
  }
  std::filesystem::remove(path);

  ASSERT_EQ(read.size(), written.size());
  for (std::size_t b = 0; b < read.size(); ++b) {
    EXPECT_EQ(read[b].sequence, written[b].sequence);
    ASSERT_EQ(read[b].rows.size(), written[b].rows.size());
    for (std::size_t r = 0; r < read[b].rows.size(); ++r) {
      const auto& got = read[b].rows[r];
      const auto& want = written[b].rows[r];
      EXPECT_EQ(got.job_id, want.job_id);
      EXPECT_EQ(got.component_id, want.component_id);
      EXPECT_EQ(got.timestamp, want.timestamp);
      EXPECT_EQ(got.app, want.app);
      EXPECT_EQ(got.values, want.values);
    }
  }
}

TEST(SampleBatchTest, RejectsForeignFrame) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "prodigy_sample_batch_bad.bin")
                        .string();
  {
    // A DSOS-style file starts with a different magic.
    util::BinaryWriter writer(path);
    writer.write_magic(0x1122334455667788ULL, 1);
    writer.write_u64(0);
  }
  util::BinaryReader reader(path);
  EXPECT_THROW(stream::SampleBatch::read_frame(reader), std::runtime_error);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// WindowState

std::vector<double> row_of(double v, std::size_t cols) {
  return std::vector<double>(cols, v);
}

TEST(WindowStateTest, OverlappingWindowsCoverHoppedRanges) {
  // W=4, H=2: window k holds rows [2k, 2k+4).
  stream::WindowState state(4, 2, 1);
  std::vector<stream::WindowSpan> spans;
  tensor::Matrix out;
  for (std::int64_t t = 0; t < 10; ++t) {
    state.push_row(t, row_of(static_cast<double>(t), 1));
    while (state.ready()) {
      spans.push_back(state.pop(out));
      // Rows come out in time order: values equal their timestamps.
      for (std::size_t r = 0; r < out.rows(); ++r) {
        EXPECT_DOUBLE_EQ(out.at(r, 0),
                         static_cast<double>(spans.back().start_ts +
                                             static_cast<std::int64_t>(r)));
      }
    }
  }
  ASSERT_EQ(spans.size(), 4u);  // windows at rows 0,2,4,6 complete by t=9
  for (std::size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].index, k);
    EXPECT_EQ(spans[k].start_ts, static_cast<std::int64_t>(2 * k));
    EXPECT_EQ(spans[k].end_ts, static_cast<std::int64_t>(2 * k + 3));
  }
  EXPECT_EQ(state.rows_pushed(), 10u);
  EXPECT_EQ(state.windows_emitted(), 4u);
}

TEST(WindowStateTest, HopLargerThanWindowSkipsRows) {
  // W=2, H=3: window k holds rows [3k, 3k+2); row 3k+2 is never emitted.
  stream::WindowState state(2, 3, 1);
  tensor::Matrix out;
  std::vector<stream::WindowSpan> spans;
  for (std::int64_t t = 0; t < 8; ++t) {
    state.push_row(10 * t, row_of(static_cast<double>(t), 1));
    while (state.ready()) spans.push_back(state.pop(out));
  }
  ASSERT_EQ(spans.size(), 3u);  // windows at rows 0,3,6
  EXPECT_EQ(spans[1].start_ts, 30);
  EXPECT_EQ(spans[1].end_ts, 40);
  EXPECT_EQ(spans[2].start_ts, 60);
  EXPECT_EQ(spans[2].end_ts, 70);
}

TEST(WindowStateTest, PopWithoutReadyThrows) {
  stream::WindowState state(4, 2, 1);
  tensor::Matrix out;
  EXPECT_THROW(state.pop(out), std::logic_error);
  state.push_row(0, row_of(0.0, 1));
  EXPECT_FALSE(state.ready());
  EXPECT_THROW(state.pop(out), std::logic_error);
}

TEST(WindowStateTest, LazyDrainPastRingCapacityThrows) {
  // W=3, H=1: after 5 pushes window 0 (rows 0..2) has lost row 0 and 1 to
  // the ring; the eager-drain contract makes that caller error loud.
  stream::WindowState state(3, 1, 1);
  for (std::int64_t t = 0; t < 5; ++t) state.push_row(t, row_of(0.0, 1));
  tensor::Matrix out;
  EXPECT_THROW(state.pop(out), std::logic_error);
}

TEST(WindowStateTest, PopDeltaEmitsFullWindowThenHops) {
  // W=4, H=2: the first emission delivers all 4 rows, every later one just
  // the 2 new rows, while the span still names the full window.
  stream::WindowState state(4, 2, 1);
  tensor::Matrix out;
  std::vector<stream::WindowSpan> spans;
  std::vector<std::size_t> delta_rows;
  std::vector<double> delta_values;
  for (std::int64_t t = 0; t < 10; ++t) {
    state.push_row(t, row_of(static_cast<double>(t), 1));
    while (state.ready()) {
      spans.push_back(state.pop_delta(out));
      delta_rows.push_back(out.rows());
      for (std::size_t r = 0; r < out.rows(); ++r) {
        delta_values.push_back(out.at(r, 0));
      }
    }
  }
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(delta_rows, (std::vector<std::size_t>{4, 2, 2, 2}));
  // Concatenated deltas are exactly rows 0..9: each row delivered once.
  ASSERT_EQ(delta_values.size(), 10u);
  for (std::size_t i = 0; i < delta_values.size(); ++i) {
    EXPECT_DOUBLE_EQ(delta_values[i], static_cast<double>(i));
  }
  for (std::size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].index, k);
    EXPECT_EQ(spans[k].start_ts, static_cast<std::int64_t>(2 * k));
    EXPECT_EQ(spans[k].end_ts, static_cast<std::int64_t>(2 * k + 3));
  }
}

TEST(WindowStateTest, PopDeltaDisjointWindowsDeliverFullWindows) {
  // H >= W: no overlap to reuse, so every delta is the whole window.
  stream::WindowState state(2, 3, 1);
  tensor::Matrix out;
  std::vector<stream::WindowSpan> spans;
  for (std::int64_t t = 0; t < 8; ++t) {
    state.push_row(10 * t, row_of(static_cast<double>(t), 1));
    while (state.ready()) {
      spans.push_back(state.pop_delta(out));
      EXPECT_EQ(out.rows(), 2u);
      EXPECT_DOUBLE_EQ(out.at(0, 0), static_cast<double>(spans.back().index * 3));
    }
  }
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].start_ts, 60);
  EXPECT_EQ(spans[2].end_ts, 70);
}

TEST(WindowStateTest, PopDeltaKeepsPopContractOnErrors) {
  stream::WindowState fresh(4, 2, 1);
  tensor::Matrix out;
  EXPECT_THROW(fresh.pop_delta(out), std::logic_error);

  stream::WindowState lazy(3, 1, 1);
  for (std::int64_t t = 0; t < 5; ++t) lazy.push_row(t, row_of(0.0, 1));
  EXPECT_THROW(lazy.pop_delta(out), std::logic_error);
}

// ---------------------------------------------------------------------------
// EventBus debouncing

stream::VerdictEvent verdict(std::int64_t component, std::uint64_t window,
                             bool anomalous) {
  stream::VerdictEvent event;
  event.job_id = 7;
  event.component_id = component;
  event.app = "HACC";
  event.window_index = window;
  event.window_start_ts = static_cast<std::int64_t>(window) * 16;
  event.window_end_ts = event.window_start_ts + 63;
  event.score = anomalous ? 2.0 : 0.1;
  event.threshold = 1.0;
  event.anomalous = anomalous;
  return event;
}

TEST(AlertBusTest, DebounceRequiresKConsecutiveVerdicts) {
  stream::EventBus bus({.debounce_windows = 3});
  std::vector<stream::TransitionEvent> transitions;
  bus.subscribe_transitions(
      [&](const stream::TransitionEvent& event) { transitions.push_back(event); });

  std::uint64_t window = 0;
  // Three healthy verdicts settle the initial state.
  for (int i = 0; i < 3; ++i) bus.publish(verdict(1, window++, false));
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].anomalous);
  EXPECT_TRUE(transitions[0].initial);
  EXPECT_EQ(transitions[0].consecutive, 3u);
  ASSERT_TRUE(bus.node_state(7, 1).has_value());
  EXPECT_FALSE(*bus.node_state(7, 1));

  // Two anomalous verdicts are not enough...
  bus.publish(verdict(1, window++, true));
  bus.publish(verdict(1, window++, true));
  EXPECT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(*bus.node_state(7, 1));
  // ...the third flips the state.
  bus.publish(verdict(1, window++, true));
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_TRUE(transitions[1].anomalous);
  EXPECT_FALSE(transitions[1].initial);
  EXPECT_EQ(transitions[1].window_index, window - 1);
  EXPECT_TRUE(*bus.node_state(7, 1));
}

TEST(AlertBusTest, FlappingVerdictsRaiseNoAlert) {
  stream::EventBus bus({.debounce_windows = 3});
  std::vector<stream::TransitionEvent> transitions;
  bus.subscribe_transitions(
      [&](const stream::TransitionEvent& event) { transitions.push_back(event); });

  std::uint64_t window = 0;
  for (int i = 0; i < 3; ++i) bus.publish(verdict(1, window++, false));
  ASSERT_EQ(transitions.size(), 1u);  // initial settle

  // healthy, anomalous, healthy, anomalous... never 3 in a row.
  for (int i = 0; i < 10; ++i) bus.publish(verdict(1, window++, i % 2 == 0));
  EXPECT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(*bus.node_state(7, 1));  // still healthy

  // Two anomalous then one healthy also breaks the candidate run.
  bus.publish(verdict(1, window++, true));
  bus.publish(verdict(1, window++, true));
  bus.publish(verdict(1, window++, false));
  bus.publish(verdict(1, window++, true));
  bus.publish(verdict(1, window++, true));
  EXPECT_EQ(transitions.size(), 1u);
  EXPECT_EQ(bus.verdicts_published(),
            bus.transitions_published() + bus.suppressed());
}

TEST(AlertBusTest, PublishCountersMatchBusTotals) {
  // The exported counters move in step with the bus's own totals: one
  // verdict per publish, split exactly into transitions and suppressed.
  auto& registry = util::MetricsRegistry::global();
  const util::Counter& verdicts = registry.counter("prodigy_stream_verdicts_total");
  const util::Counter& transitions =
      registry.counter("prodigy_stream_transitions_total");
  const util::Counter& suppressed =
      registry.counter("prodigy_stream_debounce_suppressed_total");
  const std::uint64_t verdicts0 = verdicts.value();
  const std::uint64_t transitions0 = transitions.value();
  const std::uint64_t suppressed0 = suppressed.value();

  stream::EventBus bus({.debounce_windows = 3});
  // Settle healthy, flap short of K, flip to anomalous, flap, flip back.
  const std::string script = "HHHAHAAHAAAHAHAHHHHAA";
  for (std::int64_t component = 1; component <= 2; ++component) {
    std::uint64_t window = 0;
    for (const char c : script) {
      // Node 2 sees the script inverted, so both states settle and flip.
      bus.publish(verdict(component, window++, (c == 'A') == (component == 1)));
    }
  }

  EXPECT_EQ(bus.verdicts_published(), 2 * script.size());
  EXPECT_GE(bus.transitions_published(), 4u);
  EXPECT_GT(bus.suppressed(), 0u);
  EXPECT_EQ(verdicts.value() - verdicts0, bus.verdicts_published());
  EXPECT_EQ(transitions.value() - transitions0, bus.transitions_published());
  EXPECT_EQ(suppressed.value() - suppressed0, bus.suppressed());
}

TEST(AlertBusTest, DebounceOfOneForwardsEveryFlip) {
  stream::EventBus bus({.debounce_windows = 1});
  std::vector<stream::TransitionEvent> transitions;
  bus.subscribe_transitions(
      [&](const stream::TransitionEvent& event) { transitions.push_back(event); });

  bus.publish(verdict(1, 0, false));  // initial healthy
  bus.publish(verdict(1, 1, true));
  bus.publish(verdict(1, 2, false));
  bus.publish(verdict(1, 3, false));  // repeat: no transition
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_TRUE(transitions[0].initial);
  EXPECT_TRUE(transitions[1].anomalous);
  EXPECT_FALSE(transitions[2].anomalous);
  EXPECT_EQ(bus.suppressed(), 1u);
}

TEST(AlertBusTest, NodesDebounceIndependently) {
  stream::EventBus bus({.debounce_windows = 2});
  for (int i = 0; i < 2; ++i) bus.publish(verdict(1, i, true));
  for (int i = 0; i < 2; ++i) bus.publish(verdict(2, i, false));
  ASSERT_TRUE(bus.node_state(7, 1).has_value());
  ASSERT_TRUE(bus.node_state(7, 2).has_value());
  EXPECT_TRUE(*bus.node_state(7, 1));
  EXPECT_FALSE(*bus.node_state(7, 2));
  EXPECT_FALSE(bus.node_state(7, 3).has_value());  // never seen
  EXPECT_EQ(bus.transitions_published(), 2u);
}

TEST(AlertBusTest, VerdictSinksSeeEveryPublishAndUnsubscribeStops) {
  stream::EventBus bus({.debounce_windows = 2});
  std::size_t seen = 0;
  const auto id = bus.subscribe([&](const stream::VerdictEvent&) { ++seen; });
  bus.publish(verdict(1, 0, false));
  bus.publish(verdict(1, 1, false));
  EXPECT_EQ(seen, 2u);
  bus.unsubscribe(id);
  bus.publish(verdict(1, 2, false));
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(bus.verdicts_published(), 3u);
}

TEST(AlertBusTest, ZeroDebounceRejected) {
  EXPECT_THROW(stream::EventBus bus({.debounce_windows = 0}),
               std::invalid_argument);
}

// One shared EventBus under concurrent multi-shard publishers: each "shard"
// thread owns a disjoint node set (exactly the sharded service's routing
// guarantee) and publishes its nodes' verdict sequences in window order.
// Debounced per-node transition streams must then be identical to a serial
// oracle, whatever the thread interleaving — debounce state is per-node, so
// shard concurrency must never leak between nodes.
TEST(AlertBusConcurrencyTest, ShardPublishersKeepPerNodeTransitionsOrdered) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kNodesPerShard = 3;
  constexpr std::uint64_t kWindows = 40;

  // Deterministic per-node verdict script: settle healthy, then a
  // node-dependent mix of runs long enough to flip and flaps short enough to
  // be suppressed.
  auto scripted = [](std::int64_t component, std::uint64_t window) {
    if (window < 3) return false;                      // initial settle
    const auto phase = (window + static_cast<std::uint64_t>(component)) / 6;
    return phase % 2 == 1;                             // 6-window state runs
  };

  auto run = [&](bool concurrent) {
    stream::EventBus bus({.debounce_windows = 3});
    std::mutex transitions_mutex;
    std::map<std::int64_t, std::vector<stream::TransitionEvent>> transitions;
    bus.subscribe_transitions([&](const stream::TransitionEvent& event) {
      std::lock_guard lock(transitions_mutex);
      transitions[event.component_id].push_back(event);
    });

    auto publish_shard = [&](std::size_t shard) {
      // Per-node window order is the publisher's contract (the OnlineScorer
      // chains each node's windows); across nodes the order is free.
      for (std::uint64_t window = 0; window < kWindows; ++window) {
        for (std::size_t n = 0; n < kNodesPerShard; ++n) {
          const auto component =
              static_cast<std::int64_t>(100 * (shard + 1) + n);
          bus.publish(verdict(component, window, scripted(component, window)));
        }
      }
    };

    if (concurrent) {
      std::vector<std::thread> shards;
      for (std::size_t s = 0; s < kShards; ++s) {
        shards.emplace_back([&, s] { publish_shard(s); });
      }
      for (auto& shard : shards) shard.join();
    } else {
      for (std::size_t s = 0; s < kShards; ++s) publish_shard(s);
    }

    // The debounce ledger balances regardless of interleaving.
    EXPECT_EQ(bus.verdicts_published(), kShards * kNodesPerShard * kWindows);
    EXPECT_EQ(bus.verdicts_published(),
              bus.transitions_published() + bus.suppressed());
    std::lock_guard lock(transitions_mutex);
    return transitions;
  };

  const auto oracle = run(/*concurrent=*/false);
  const auto concurrent = run(/*concurrent=*/true);

  ASSERT_EQ(concurrent.size(), oracle.size());
  for (const auto& [component, expected] : oracle) {
    const auto it = concurrent.find(component);
    ASSERT_NE(it, concurrent.end()) << "node " << component;
    const auto& got = it->second;
    ASSERT_EQ(got.size(), expected.size()) << "node " << component;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].anomalous, expected[i].anomalous);
      EXPECT_EQ(got[i].initial, expected[i].initial);
      EXPECT_EQ(got[i].window_index, expected[i].window_index);
      EXPECT_EQ(got[i].consecutive, expected[i].consecutive);
      // Ordered: each node's transition stream advances monotonically.
      if (i > 0) {
        EXPECT_GT(got[i].window_index, got[i - 1].window_index);
      }
    }
  }
}

}  // namespace
