// In-memory span recorder for the benchmark's traced run.  Spans are taken
// by the benchmark's own code around calls into the library's public API
// (nothing inside the library is instrumented); they are kept in memory and
// written once, at exit, as Chrome trace-event JSON that Perfetto opens.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace prodigy::bench::e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;  // spans of one window/request share it
    std::size_t parent = kNoParent;
    std::uint32_t tid = 0;
  };

  /// Opens a span and returns its handle (an index usable as a parent).
  std::size_t open(const char* name, std::uint64_t id,
                   std::size_t parent = kNoParent) {
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent;
    span.tid = thread_index();
    span.start_ns = now_ns();
    std::lock_guard lock(mutex_);
    spans_.push_back(span);
    return spans_.size() - 1;
  }

  void close(std::size_t handle) {
    const std::int64_t end = now_ns();
    std::lock_guard lock(mutex_);
    spans_[handle].end_ns = end;
  }

  /// Snapshot of every span; call once the traced work has finished.
  std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

  /// Writes every span as a Chrome trace-event "complete" (ph X) event.
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens on construction, closes on destruction; a null tracer is a no-op,
/// so untraced code paths call the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id,
             std::size_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        handle_(tracer ? tracer->open(name, id, parent) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t handle() const noexcept { return handle_; }

 private:
  Tracer* tracer_;
  std::size_t handle_;
};

/// Per span name: every duration and every self time (duration minus the
/// union of its children's intervals), in nanoseconds.
struct SpanTimes {
  std::vector<double> duration_ns;
  std::vector<double> self_ns;
};

inline std::map<std::string, SpanTimes> span_times(
    const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Tracer::kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::map<std::string, SpanTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    if (span.end_ns < span.start_ns) continue;  // never closed
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans[c].start_ns, span.start_ns),
                         std::min(spans[c].end_ns, span.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = span.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    SpanTimes& times = out[span.name];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    times.duration_ns.push_back(duration);
    times.self_ns.push_back(duration - static_cast<double>(covered));
  }
  return out;
}

inline bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const Span& span : all) origin = std::min(origin, span.start_ns);
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < span.start_ns) continue;
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"prodigy\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"id\":%llu,\"parent\":%lld}}",
                 first ? "" : ",", span.name, span.tid,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 static_cast<unsigned long long>(span.id),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent));
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace prodigy::bench::e2e
