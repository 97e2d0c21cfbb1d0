#include "stream/event_bus.hpp"

#include "util/metrics.hpp"

#include <stdexcept>

namespace prodigy::stream {

namespace {

// Resolved once: the registry lookup (name sanitizing plus a global-mutex
// map find) stays off the per-verdict path.
struct BusMetrics {
  util::Counter* verdicts;
  util::Counter* transitions;
  util::Counter* suppressed;

  static BusMetrics& instance() {
    static BusMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::global();
      BusMetrics m;
      m.verdicts = &registry.counter("prodigy_stream_verdicts_total");
      m.transitions = &registry.counter("prodigy_stream_transitions_total");
      m.suppressed =
          &registry.counter("prodigy_stream_debounce_suppressed_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

EventBus::EventBus(EventBusConfig config) : config_(config) {
  if (config_.debounce_windows == 0) {
    throw std::invalid_argument("EventBus: debounce_windows must be > 0");
  }
}

std::uint64_t EventBus::subscribe(VerdictSink sink) {
  std::lock_guard lock(mutex_);
  const auto id = next_id_++;
  verdict_sinks_[id] = std::make_shared<const VerdictSink>(std::move(sink));
  return id;
}

std::uint64_t EventBus::subscribe_transitions(TransitionSink sink) {
  std::lock_guard lock(mutex_);
  const auto id = next_id_++;
  transition_sinks_[id] = std::make_shared<const TransitionSink>(std::move(sink));
  return id;
}

void EventBus::unsubscribe(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  verdict_sinks_.erase(id);
  transition_sinks_.erase(id);
}

void EventBus::publish(const VerdictEvent& event) {
  std::vector<std::shared_ptr<const VerdictSink>> verdict_sinks;
  std::vector<std::shared_ptr<const TransitionSink>> transition_sinks;
  TransitionEvent transition;
  bool emit = false;
  {
    std::lock_guard lock(mutex_);
    ++verdicts_;
    NodeState& node = nodes_[{event.job_id, event.component_id}];
    const bool s = event.anomalous;
    if (node.state.has_value() && s == *node.state) {
      // Verdict agrees with the settled state; any pending flip is broken.
      node.candidate.reset();
      node.candidate_count = 0;
      ++suppressed_;
    } else {
      if (node.candidate.has_value() && *node.candidate == s) {
        ++node.candidate_count;
      } else {
        node.candidate = s;
        node.candidate_count = 1;
      }
      if (node.candidate_count >= config_.debounce_windows) {
        transition.job_id = event.job_id;
        transition.component_id = event.component_id;
        transition.app = event.app;
        transition.anomalous = s;
        transition.initial = !node.state.has_value();
        transition.window_index = event.window_index;
        transition.window_start_ts = event.window_start_ts;
        transition.window_end_ts = event.window_end_ts;
        transition.score = event.score;
        transition.threshold = event.threshold;
        transition.consecutive = node.candidate_count;
        node.state = s;
        node.candidate.reset();
        node.candidate_count = 0;
        ++transitions_;
        emit = true;
      } else {
        ++suppressed_;
      }
    }
    verdict_sinks.reserve(verdict_sinks_.size());
    for (const auto& [id, sink] : verdict_sinks_) verdict_sinks.push_back(sink);
    if (emit) {
      transition_sinks.reserve(transition_sinks_.size());
      for (const auto& [id, sink] : transition_sinks_) {
        transition_sinks.push_back(sink);
      }
    }
  }
  auto& metrics = BusMetrics::instance();
  metrics.verdicts->increment();
  (emit ? metrics.transitions : metrics.suppressed)->increment();
  // Dispatch outside the lock: sinks may be slow (stdout, network) or call
  // back into the bus.
  for (const auto& sink : verdict_sinks) (*sink)(event);
  if (emit) {
    for (const auto& sink : transition_sinks) (*sink)(transition);
  }
}

std::optional<bool> EventBus::node_state(std::int64_t job_id,
                                         std::int64_t component_id) const {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find({job_id, component_id});
  return it == nodes_.end() ? std::nullopt : it->second.state;
}

std::uint64_t EventBus::verdicts_published() const {
  std::lock_guard lock(mutex_);
  return verdicts_;
}

std::uint64_t EventBus::transitions_published() const {
  std::lock_guard lock(mutex_);
  return transitions_;
}

std::uint64_t EventBus::suppressed() const {
  std::lock_guard lock(mutex_);
  return suppressed_;
}

}  // namespace prodigy::stream
