#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace saufno {
namespace obs {
namespace detail {

std::atomic<int> g_trace_state{0};

namespace {

struct Event {
  const char* name;
  int64_t t0_ns;
  int64_t t1_ns;
  uint32_t tid;
};

constexpr std::size_t kBufferCapacity = 65536;  // events per thread

/// Single-writer event buffer: the owning thread appends and publishes via
/// `n` (release); readers (trace_stop) load `n` (acquire) and read only the
/// published prefix. Fixed capacity, so publication never reallocates under
/// a reader.
struct TraceBuffer {
  std::vector<Event> events;
  std::atomic<std::size_t> n{0};
  std::atomic<int64_t> dropped{0};
  uint32_t tid = 0;
};

struct TraceRegistry {
  std::mutex m;
  std::vector<TraceBuffer*> buffers;  // live + orphaned; never freed
  uint32_t next_tid = 1;
  std::string path;
  int64_t epoch_ns = 0;  // span timestamps are relative to trace_start
};

TraceRegistry& trace_registry() {
  // Immortal: spans on late-exiting threads must never touch a destroyed
  // registry (same teardown-ordering rule as the metrics registry).
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

/// The calling thread's buffer. Allocated on first span, registered
/// immortal: a thread that exits mid-trace leaves its events behind for the
/// final flush instead of tearing them down.
TraceBuffer& local_buffer() {
  thread_local TraceBuffer* buf = [] {
    auto* b = new TraceBuffer();
    b->events.resize(kBufferCapacity);
    auto& r = trace_registry();
    std::lock_guard<std::mutex> lk(r.m);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void json_escape_to(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void trace_record(const char* name, int64_t t0_ns, int64_t t1_ns) {
  TraceBuffer& b = local_buffer();
  const std::size_t i = b.n.load(std::memory_order_relaxed);
  if (i >= b.events.size()) {
    b.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.events[i] = Event{name, t0_ns, t1_ns, b.tid};
  b.n.store(i + 1, std::memory_order_release);
}

bool trace_lazy_init() {
  // The mutex makes concurrent first spans race-free; the winner arms the
  // state and everyone re-reads it.
  auto& r = trace_registry();
  std::lock_guard<std::mutex> lk(r.m);
  int s = g_trace_state.load(std::memory_order_acquire);
  if (s != 0) return s == 2;
  const char* path = std::getenv("SAUFNO_TRACE");
  if (path == nullptr || path[0] == '\0') {
    g_trace_state.store(1, std::memory_order_release);
    return false;
  }
  r.path = path;
  r.epoch_ns = trace_now_ns();
  g_trace_state.store(2, std::memory_order_release);
  // Flush when the process exits normally — serving binaries need no
  // explicit shutdown call.
  std::atexit([] { trace_stop(); });
  SAUFNO_INFO << "tracing spans to " << r.path
              << " (SAUFNO_TRACE); open in chrome://tracing or Perfetto";
  return true;
}

}  // namespace detail

void trace_start(const std::string& path) {
  using namespace detail;
  auto& r = trace_registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (TraceBuffer* b : r.buffers) {
    b->n.store(0, std::memory_order_release);
    b->dropped.store(0, std::memory_order_relaxed);
  }
  r.path = path;
  r.epoch_ns = trace_now_ns();
  g_trace_state.store(2, std::memory_order_release);
}

void trace_stop() {
  using namespace detail;
  auto& r = trace_registry();
  std::lock_guard<std::mutex> lk(r.m);
  if (g_trace_state.load(std::memory_order_acquire) != 2) return;
  // Disable first: spans that begin after this store see tracing off and
  // record nothing; spans already past the enabled check may still publish
  // into their buffer, but we only read each buffer's published prefix, so
  // the flush below is race-free either way.
  g_trace_state.store(1, std::memory_order_release);

  std::FILE* f = std::fopen(r.path.c_str(), "w");
  if (f == nullptr) {
    SAUFNO_WARN << "could not open trace output " << r.path;
    return;
  }
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  int64_t dropped = 0;
  for (TraceBuffer* b : r.buffers) {
    const std::size_t n = b->n.load(std::memory_order_acquire);
    dropped += b->dropped.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = b->events[i];
      if (!first) out += ",\n";
      first = false;
      char line[160];
      // Chrome trace events use MICROsecond ts/dur; keep ns precision via
      // the fractional part.
      std::snprintf(line, sizeof(line),
                    "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"name\": \"",
                    e.tid, static_cast<double>(e.t0_ns - r.epoch_ns) / 1e3,
                    static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
      out += line;
      json_escape_to(out, e.name);
      out += "\"}";
    }
    b->n.store(0, std::memory_order_release);
    b->dropped.store(0, std::memory_order_relaxed);
  }
  out += "\n]}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (dropped > 0) {
    SAUFNO_WARN << "trace dropped " << dropped
                << " events (a thread filled its 65536-event buffer)";
  }
}

int64_t trace_dropped_events() {
  using namespace detail;
  auto& r = trace_registry();
  std::lock_guard<std::mutex> lk(r.m);
  int64_t dropped = 0;
  for (TraceBuffer* b : r.buffers) {
    dropped += b->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

}  // namespace obs
}  // namespace saufno
