#include "util/metrics.hpp"

#include "util/logging.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace prodigy::util {

namespace {

std::string format_value(double v) {
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

/// Nearest-rank quantile over an already-sorted window.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

Histogram::Histogram(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  samples_.reserve(std::min<std::size_t>(capacity_, 64));
}

void Histogram::observe(double value) {
  std::lock_guard lock(mutex_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
  } else {
    samples_[next_] = value;
    next_ = (next_ + 1) % capacity_;
  }
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  samples_.clear();
  next_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

HistogramSnapshot Histogram::snapshot() const {
  std::vector<double> window;
  HistogramSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.count = count_;
    snap.sum = sum_;
    snap.min = min_;
    snap.max = max_;
    window = samples_;
  }
  std::sort(window.begin(), window.end());
  snap.p50 = quantile_sorted(window, 0.50);
  snap.p95 = quantile_sorted(window, 0.95);
  snap.p99 = quantile_sorted(window, 0.99);
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsRegistry::sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) return "_";
  if (out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::lookup(const std::string& name,
                                                Kind kind, std::size_t capacity) {
  const std::string key = sanitize_name(name);
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::Counter: entry.counter = std::make_unique<Counter>(); break;
      case Kind::Gauge: entry.gauge = std::make_unique<Gauge>(); break;
      case Kind::Histogram:
        entry.histogram = std::make_unique<Histogram>(capacity);
        break;
    }
    it = entries_.emplace(key, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: metric '" + key +
                           "' already registered as a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *lookup(name, Kind::Counter, 0).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *lookup(name, Kind::Gauge, 0).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::size_t capacity) {
  return *lookup(name, Kind::Histogram, capacity).histogram;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(entry.counter->value()) + "\n";
        break;
      case Kind::Gauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_value(entry.gauge->value()) + "\n";
        break;
      case Kind::Histogram: {
        const HistogramSnapshot snap = entry.histogram->snapshot();
        out += "# TYPE " + name + " summary\n";
        out += name + "{quantile=\"0.5\"} " + format_value(snap.p50) + "\n";
        out += name + "{quantile=\"0.95\"} " + format_value(snap.p95) + "\n";
        out += name + "{quantile=\"0.99\"} " + format_value(snap.p99) + "\n";
        out += name + "_sum " + format_value(snap.sum) + "\n";
        out += name + "_count " + std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        counters += counters.empty() ? "" : ",";
        counters += "\n    \"" + name + "\": " +
                    std::to_string(entry.counter->value());
        break;
      case Kind::Gauge:
        gauges += gauges.empty() ? "" : ",";
        gauges += "\n    \"" + name + "\": " + format_value(entry.gauge->value());
        break;
      case Kind::Histogram: {
        const HistogramSnapshot snap = entry.histogram->snapshot();
        histograms += histograms.empty() ? "" : ",";
        histograms += "\n    \"" + name + "\": {";
        histograms += "\"count\": " + std::to_string(snap.count);
        histograms += ", \"sum\": " + format_value(snap.sum);
        histograms += ", \"min\": " + format_value(snap.min);
        histograms += ", \"max\": " + format_value(snap.max);
        histograms += ", \"p50\": " + format_value(snap.p50);
        histograms += ", \"p95\": " + format_value(snap.p95);
        histograms += ", \"p99\": " + format_value(snap.p99);
        histograms += "}";
        break;
      }
    }
  }
  std::string out = "{\n";
  out += "  \"counters\": {" + counters + (counters.empty() ? "" : "\n  ") + "},\n";
  out += "  \"gauges\": {" + gauges + (gauges.empty() ? "" : "\n  ") + "},\n";
  out += "  \"histograms\": {" + histograms +
         (histograms.empty() ? "" : "\n  ") + "}\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw std::runtime_error("MetricsRegistry: cannot write " + path);
  }
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  file << (json ? to_json() : to_prometheus());
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::Counter:
        entry.counter->reset();
        break;
      case Kind::Gauge:
        entry.gauge->set(0.0);
        break;
      case Kind::Histogram:
        entry.histogram->reset();
        break;
    }
  }
}

Histogram& stage_histogram(const std::string& stage) {
  return MetricsRegistry::global().histogram(
      "prodigy_stage_" + MetricsRegistry::sanitize_name(stage) + "_seconds");
}

StageTimer::StageTimer(const char* stage, double* sink)
    : stage_(stage), histogram_(nullptr), sink_(sink) {}

StageTimer::StageTimer(Histogram& histogram, const char* stage, double* sink)
    : stage_(stage), histogram_(&histogram), sink_(sink) {}

StageTimer::~StageTimer() { stop(); }

double StageTimer::stop() {
  if (stopped_) return recorded_;
  stopped_ = true;
  recorded_ = timer_.elapsed_seconds();
  if (sink_) *sink_ = recorded_;
  Histogram& histogram =
      histogram_ != nullptr ? *histogram_ : stage_histogram(stage_);
  histogram.observe(recorded_);
  log_debug("trace stage=", stage_, " seconds=", recorded_);
  return recorded_;
}

}  // namespace prodigy::util
