// Telemetry subsystem tests: counter accuracy under concurrency, histogram
// quantile error bounds against exact sorted samples, trace JSON validity
// and span nesting, and registry scrapes while writers are hot.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/conv_ops.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "obs/export.h"
#include "obs/kernel_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace saufno {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  const int n_threads = 8;
  const int64_t per_thread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < per_thread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), n_threads * per_thread);
  c.reset();
  EXPECT_EQ(c.value(), 0);
  c.add(42);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, AddAndSet) {
  obs::Gauge g;
  g.add(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  g.set(17);
  EXPECT_EQ(g.value(), 17);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Gauge, ConcurrentAddBalancesOut) {
  obs::Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        g.add(1);
        g.add(-1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, QuantilesWithinLogBucketErrorBound) {
  // Log-uniform samples spanning six decades: every octave of the table
  // gets exercised, and the exact quantiles vary over orders of magnitude.
  obs::Histogram h;
  Rng rng(123);
  std::vector<double> samples;
  const int n = 20000;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double v = std::pow(10.0, rng.uniform(-3.0, 3.0));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count(), n);

  // Midpoint interpolation bounds the relative error by ~1/(2*kSubBuckets)
  // = 6.25%; allow a whisker on top for the rank convention.
  const double tol = 0.07;
  for (const double p : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * n)) - 1;
    const double exact = samples[std::min(rank, samples.size() - 1)];
    const double approx = h.quantile(p);
    EXPECT_NEAR(approx / exact, 1.0, tol)
        << "p=" << p << " exact=" << exact << " approx=" << approx;
  }

  // Extremes and moments are tracked exactly, not bucketed.
  EXPECT_DOUBLE_EQ(h.min(), samples.front());
  EXPECT_DOUBLE_EQ(h.max(), samples.back());
  EXPECT_DOUBLE_EQ(h.quantile(0.0), samples.front());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  EXPECT_NEAR(h.mean(), sum / n, std::abs(sum / n) * 1e-9);
}

TEST(Histogram, EmptyAndDegenerateInputs) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  // Zero / negative values land in the underflow bucket but keep exact
  // min/max, and quantile stays clamped to the observed range.
  h.record(0.0);
  h.record(-3.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_GE(h.quantile(0.5), -3.0);
  EXPECT_LE(h.quantile(0.5), 5.0);

  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, SingleValueIsExactEverywhere) {
  obs::Histogram h;
  h.record(3.25);
  for (const double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(p), 3.25) << "p=" << p;
  }
}

TEST(Histogram, ConcurrentRecordKeepsExactCountAndExtremes) {
  obs::Histogram h;
  std::vector<std::thread> threads;
  const int n_threads = 4, per_thread = 50000;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < per_thread; ++i) h.record(rng.uniform(1.0, 2.0));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<int64_t>(n_threads) * per_thread);
  EXPECT_GE(h.min(), 1.0);
  EXPECT_LE(h.max(), 2.0);
  const double p50 = h.quantile(0.5);
  EXPECT_NEAR(p50, 1.5, 0.15);
}

TEST(Registry, ScrapeWhileWritersHot) {
  auto& reg = obs::Registry::instance();
  obs::Counter& c = obs::counter("test.hot_counter");
  obs::Histogram& h = obs::histogram("test.hot_hist");
  c.reset();
  h.reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        h.record(1.5);
      }
    });
  }

  // Wait until the writers are visibly running (thread startup can outlast
  // the whole scrape loop on a loaded CI box), then scrape repeatedly while
  // they hammer; counter values observed across scrapes must be monotone
  // (no torn or lost reads).
  while (c.value() == 0) std::this_thread::yield();
  int64_t last = -1;
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    for (const auto& m : snap) {
      if (m.name == "test.hot_counter") {
        EXPECT_EQ(m.kind, obs::MetricKind::kCounter);
        const int64_t v = static_cast<int64_t>(m.value);
        EXPECT_GE(v, last);
        last = v;
      }
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(last, 0);
  EXPECT_EQ(c.value(), h.count());
}

TEST(Registry, SameNameReturnsSameMetricAndKindsAreStable) {
  obs::Counter& a = obs::counter("test.same_name");
  obs::Counter& b = obs::counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(Registry, CallbackGaugesAppearInSnapshot) {
  auto& reg = obs::Registry::instance();
  reg.register_callback("test.cb_value", [] { return 12.5; });
  bool found = false;
  for (const auto& m : reg.snapshot()) {
    if (m.name == "test.cb_value") {
      found = true;
      EXPECT_EQ(m.kind, obs::MetricKind::kCallback);
      EXPECT_DOUBLE_EQ(m.value, 12.5);
    }
  }
  EXPECT_TRUE(found);
  reg.unregister_callback("test.cb_value");
  for (const auto& m : reg.snapshot()) {
    EXPECT_NE(m.name, "test.cb_value");
  }
}

TEST(Registry, BuiltinRuntimeCallbacksPresent) {
  // The registry self-registers the FFT plan cache's scrape hook at
  // construction.
  std::vector<std::string> names;
  for (const auto& m : obs::Registry::instance().snapshot()) {
    names.push_back(m.name);
  }
  auto has = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("fft.plan_cache.size"));
}

TEST(Exporters, JsonAndPrometheusCarryMetrics) {
  obs::Counter& c = obs::counter("test.export_counter");
  obs::Histogram& h = obs::histogram("test.export_hist");
  c.reset();
  h.reset();
  c.add(7);
  h.record(2.0);
  h.record(4.0);

  const std::string js = obs::dump_json();
  EXPECT_NE(js.find("\"test.export_counter\""), std::string::npos);
  EXPECT_NE(js.find("\"test.export_hist\""), std::string::npos);
  EXPECT_NE(js.find("\"p99\""), std::string::npos);
  // Structural sanity: balanced braces.
  int depth = 0;
  for (const char ch : js) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  const std::string prom = obs::dump_prometheus();
  EXPECT_NE(prom.find("# TYPE saufno_test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("saufno_test_export_counter 7"), std::string::npos);
  EXPECT_NE(prom.find("saufno_test_export_hist_count 2"), std::string::npos);
}

/// Minimal parser for the one-event-per-line trace format trace_stop()
/// writes; enough to check structure without a JSON library.
struct ParsedEvent {
  std::string name;
  double ts = 0.0, dur = 0.0;
  int tid = 0;
};

std::vector<ParsedEvent> parse_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "trace file missing: " << path;
  std::vector<ParsedEvent> events;
  std::string line;
  auto field = [](const std::string& l, const char* key) -> std::string {
    const std::string pat = std::string("\"") + key + "\": ";
    const std::size_t at = l.find(pat);
    if (at == std::string::npos) return "";
    std::size_t start = at + pat.size();
    std::size_t end = l.find_first_of(",}", start);
    std::string v = l.substr(start, end - start);
    if (!v.empty() && v.front() == '"') v = v.substr(1, v.size() - 2);
    return v;
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    ParsedEvent e;
    e.name = field(line, "name");
    e.ts = std::stod(field(line, "ts"));
    e.dur = std::stod(field(line, "dur"));
    e.tid = std::stoi(field(line, "tid"));
    events.push_back(e);
  }
  return events;
}

TEST(Trace, FileIsValidAndSpansNestCorrectly) {
  const std::string path = ::testing::TempDir() + "/saufno_trace_test.json";
  obs::trace_start(path);
  {
    SAUFNO_TRACE_SPAN("outer");
    {
      SAUFNO_TRACE_SPAN("inner");
      volatile int sink = 0;
      for (int i = 0; i < 10000; ++i) sink += i;
    }
  }
  std::thread worker([] {
    SAUFNO_TRACE_SPAN("worker_span");
  });
  worker.join();
  obs::trace_stop();

  // Structural validity: one top-level object, balanced brackets,
  // traceEvents array present.
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  int braces = 0, brackets = 0;
  for (const char ch : doc) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  const auto events = parse_trace(path);
  const ParsedEvent* outer = nullptr;
  const ParsedEvent* inner = nullptr;
  const ParsedEvent* worker_span = nullptr;
  for (const auto& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "worker_span") worker_span = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker_span, nullptr);

  // Nesting: the inner span is contained in the outer span on the same
  // thread. Timestamps carry ns precision as fractional us; allow a 1ns
  // formatting epsilon.
  EXPECT_EQ(outer->tid, inner->tid);
  const double eps = 0.002;
  EXPECT_LE(outer->ts, inner->ts + eps);
  EXPECT_GE(outer->ts + outer->dur, inner->ts + inner->dur - eps);
  // The worker thread got its own tid.
  EXPECT_NE(worker_span->tid, outer->tid);

  EXPECT_EQ(obs::trace_dropped_events(), 0);
  std::filesystem::remove(path);
}

TEST(Trace, DisabledSpansAreFreeAndStopIsIdempotent) {
  // After trace_stop, spans must not record (state is off).
  obs::trace_stop();  // idempotent no-op if already stopped
  {
    SAUFNO_TRACE_SPAN("should_not_record");
  }
  const std::string path = ::testing::TempDir() + "/saufno_trace_test2.json";
  obs::trace_start(path);
  obs::trace_stop();
  const auto events = parse_trace(path);
  for (const auto& e : events) {
    EXPECT_NE(e.name, "should_not_record");
  }
  std::filesystem::remove(path);
}

TEST(KernelProfile, TimerRecordsOnlyWhenEnabled) {
  obs::Histogram h;
  obs::force_profile_kernels(false);
  {
    obs::KernelTimer t(h, "test.kernel");
  }
  EXPECT_EQ(h.count(), 0);

  obs::force_profile_kernels(true);
  {
    obs::KernelTimer t(h, "test.kernel");
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  obs::force_profile_kernels(false);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.max(), 0.0);  // microseconds, strictly positive
}

TEST(KernelProfile, ConvAndGemmEachRecordTheirOwnCalls) {
  // The forward conv runs its own tile loop, not gemm(): one conv call is
  // one kernel.conv2d_us sample and no kernel.gemm_us sample.
  Rng rng(3);
  const Tensor x = Tensor::randn({2, 3, 9, 9}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
  Tensor out({2, 4, 9, 9});
  obs::Histogram& conv_us = obs::histogram("kernel.conv2d_us");
  obs::Histogram& gemm_us = obs::histogram("kernel.gemm_us");
  const int64_t conv0 = conv_us.count(), gemm0 = gemm_us.count();
  obs::force_profile_kernels(true);
  ops::fwd::conv2d_into(x, w, nullptr, 1, 1, Act::kNone, out);
  obs::force_profile_kernels(false);
  EXPECT_EQ(conv_us.count() - conv0, 1);
  EXPECT_EQ(gemm_us.count() - gemm0, 0);

  Tensor c({3, 5});
  obs::force_profile_kernels(true);
  gemm(Tensor::randn({3, 4}, rng).data(), Tensor::randn({4, 5}, rng).data(),
       c.data(), 3, 5, 4, /*accumulate=*/false);
  obs::force_profile_kernels(false);
  EXPECT_EQ(conv_us.count() - conv0, 1);
  EXPECT_EQ(gemm_us.count() - gemm0, 1);
}

TEST(JsonWriterLib, EscapesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.field("plain", "a\"b\\c");
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value(2.5, 1);
  w.value(true);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.field("inf_is_null", std::numeric_limits<double>::infinity(), 3);
  w.end_object();
  w.end_object();
  const std::string s = w.str();
  EXPECT_NE(s.find("\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_NE(s.find("true"), std::string::npos);
  EXPECT_NE(s.find("null"), std::string::npos);
  int depth = 0;
  for (const char ch : s) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace saufno
