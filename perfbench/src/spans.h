#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same log, or -1 for a root.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// In-memory span recorder for the traced run. Disabled logs record
/// nothing and hand out id -1, so untraced runs pay one branch per call.
/// Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int32_t begin(const char* name, int32_t parent, int64_t request);
  void end(int32_t id);
  std::vector<Span> spans() const;

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int32_t parent = -1,
             int64_t request = -1)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Same order as `spans`.
std::vector<int64_t> self_times_ns(const std::vector<Span>& spans);

/// Totals per span name, in first-seen order.
struct SpanTotals {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Write every span (with its self time) and the per-name totals as JSON.
bool write_spans_json(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
