// The alert path of the streaming subsystem: the online scorer publishes one
// VerdictEvent per scored window; subscribers receive either the raw verdict
// stream or the debounced state-transition stream.  Debouncing collapses K
// consecutive identical verdicts into a single transition event, so a node
// flapping around the threshold (healthy, anomalous, healthy, ...) raises no
// alert until one state holds for K windows.
//
// Thread-safety: publish() may be called from any thread (scoring tasks run
// on the pool).  Sinks are invoked outside the bus lock and must be
// thread-safe themselves; per-node event order is preserved as long as the
// publisher serializes per-node publishes (the OnlineScorer does).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace prodigy::stream {

/// One scored window of one node.
struct VerdictEvent {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  std::uint64_t window_index = 0;
  std::int64_t window_start_ts = 0;
  std::int64_t window_end_ts = 0;
  double score = 0.0;
  double threshold = 0.0;
  bool anomalous = false;
};

/// A debounced change of a node's health state, confirmed by `consecutive`
/// identical verdicts ending at the carried window.  `initial` marks the
/// first state a node ever settles into (node came online).
struct TransitionEvent {
  std::int64_t job_id = 0;
  std::int64_t component_id = 0;
  std::string app;
  bool anomalous = false;  // the new state
  bool initial = false;
  std::uint64_t window_index = 0;  // window that confirmed the transition
  std::int64_t window_start_ts = 0;
  std::int64_t window_end_ts = 0;
  double score = 0.0;
  double threshold = 0.0;
  std::uint64_t consecutive = 0;  // debounce depth that confirmed it (== K)
};

struct EventBusConfig {
  /// Consecutive identical verdicts required to change a node's debounced
  /// state.  1 = every verdict flip is a transition (no debouncing).
  std::size_t debounce_windows = 3;
};

class EventBus {
 public:
  using VerdictSink = std::function<void(const VerdictEvent&)>;
  using TransitionSink = std::function<void(const TransitionEvent&)>;

  explicit EventBus(EventBusConfig config = {});

  /// Subscribes to every scored window.  Returns an id for unsubscribe().
  std::uint64_t subscribe(VerdictSink sink);
  /// Subscribes to debounced state transitions only.
  std::uint64_t subscribe_transitions(TransitionSink sink);
  void unsubscribe(std::uint64_t id);

  /// Dispatches to raw subscribers, folds the verdict into the node's
  /// debounce state, and dispatches a TransitionEvent when the state flips.
  void publish(const VerdictEvent& event);

  /// Debounced state of one node, if it has settled yet.
  std::optional<bool> node_state(std::int64_t job_id,
                                 std::int64_t component_id) const;

  std::uint64_t verdicts_published() const;
  std::uint64_t transitions_published() const;
  /// Verdicts absorbed by debouncing: identical to the current state, or a
  /// candidate flip that had not yet reached K when it broke.
  std::uint64_t suppressed() const;

 private:
  struct NodeState {
    std::optional<bool> state;    // settled debounced state
    std::optional<bool> candidate;
    std::size_t candidate_count = 0;
  };

  EventBusConfig config_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const VerdictSink>> verdict_sinks_;
  std::map<std::uint64_t, std::shared_ptr<const TransitionSink>> transition_sinks_;
  std::map<std::pair<std::int64_t, std::int64_t>, NodeState> nodes_;
  std::uint64_t next_id_ = 1;
  std::uint64_t verdicts_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace prodigy::stream
