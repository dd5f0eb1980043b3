#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace saufno {
namespace obs {

/// Scoped tracing spans — pillar 2 of the telemetry subsystem.
///
/// When enabled (SAUFNO_TRACE=<path>, or trace_start() programmatically),
/// every SAUFNO_TRACE_SPAN scope records one Chrome trace-event "complete"
/// event ({"ph":"X", ts, dur}) into a per-thread single-writer buffer:
/// the recording thread appends unsynchronized and publishes with one
/// release store of the event count, so the hot path takes no lock and
/// touches no shared cache line. trace_stop() (or the atexit hook the env
/// knob installs) drains every buffer — live and from exited threads —
/// into trace-event JSON that chrome://tracing and Perfetto load directly.
///
/// When disabled, a span is one relaxed atomic load and a branch; the
/// clock is never read.

namespace detail {
/// 0 = not yet initialized from the environment, 1 = off, 2 = on.
extern std::atomic<int> g_trace_state;
/// Reads SAUFNO_TRACE once, arms tracing + the atexit flush if set.
bool trace_lazy_init();
int64_t trace_now_ns();
void trace_record(const char* name, int64_t t0_ns, int64_t t1_ns);
}  // namespace detail

inline bool trace_enabled() {
  const int s = detail::g_trace_state.load(std::memory_order_acquire);
  if (s != 0) return s == 2;
  return detail::trace_lazy_init();
}

/// Start recording spans; buffered events and any previous output path are
/// discarded. Test/bench hook — production binaries use SAUFNO_TRACE.
void trace_start(const std::string& path);

/// Stop recording and write every buffered event to the active path as
/// trace-event JSON. Idempotent; no-op when tracing never started.
void trace_stop();

/// Events dropped because a thread buffer filled (capacity 65536 events
/// per thread).
int64_t trace_dropped_events();

/// RAII span. `name` must outlive the process (string literals only): the
/// buffer stores the pointer, not a copy.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      t0_ns_ = detail::trace_now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::trace_record(name_, t0_ns_, detail::trace_now_ns());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t t0_ns_ = 0;
};

#define SAUFNO_TRACE_CONCAT2(a, b) a##b
#define SAUFNO_TRACE_CONCAT(a, b) SAUFNO_TRACE_CONCAT2(a, b)
/// Scoped span covering the rest of the enclosing block.
#define SAUFNO_TRACE_SPAN(name) \
  ::saufno::obs::TraceSpan SAUFNO_TRACE_CONCAT(_saufno_span_, __LINE__)(name)

}  // namespace obs
}  // namespace saufno
