#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace saufno {
namespace obs {

/// Metrics registry — pillar 1 of the telemetry subsystem.
///
/// Hot-path cost model: only `Counter` is sharded. Its cells sit on separate
/// cache lines and each thread adds to its own slot, so concurrent
/// increments never bounce a line. `Gauge` is one shared atomic.
/// `Histogram::record` touches cells every thread shares: a relaxed add on
/// one bucket of a log-spaced table, a relaxed add on the count, and a CAS
/// loop on the sum, plus one on min and on max when the value moves them.
/// Aggregation (summing shards, walking buckets) happens only on scrape.
/// Instrumented code caches the metric reference once (`static
/// obs::Counter& c = obs::counter("...")`) so the name lookup and its mutex
/// are off the hot path entirely.

/// Index of the calling thread's counter shard. Slots are handed out
/// round-robin at first use; with more live threads than shards two threads
/// may share a slot, which costs contention but never correctness (the RMW
/// is atomic).
int shard_index();

constexpr int kCounterShards = 64;

/// Monotone event counter. `add` is wait-free; `value` sums the shards.
class Counter {
 public:
  void add(int64_t v = 1) {
    cells_[shard_index()].v.fetch_add(v, std::memory_order_relaxed);
  }
  int64_t value() const {
    int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  Cell cells_[kCounterShards];
};

/// Point-in-time integer level (queue depth, live sessions). `add` keeps the
/// gauge aggregate-correct when many call sites move it (+1 on enqueue, -1
/// on dequeue, across any number of instances sharing the name).
class Gauge {
 public:
  void add(int64_t v) { v_.fetch_add(v, std::memory_order_relaxed); }
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-bucketed histogram over positive doubles.
///
/// Buckets split each power-of-two octave into kSubBuckets linear slices,
/// so `quantile(p)` (bucket-midpoint interpolation) carries a relative
/// error of at most ~1/(2*kSubBuckets) ≈ 6.25% — plenty for latency
/// percentiles, and O(buckets) per query instead of the
/// copy-and-sort-8192-samples scan it replaces. Exact min/max/sum/count are
/// tracked alongside, so `quantile(0)`/`quantile(1)` and `mean()` are
/// exact. Values <= 0 (and NaN) land in the underflow bucket and are
/// reported by quantile() as the exact observed minimum.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   // slices per octave
  static constexpr int kMinExp = -10;     // 2^-11 ≈ 4.9e-4: smallest octave
  static constexpr int kMaxExp = 40;      // 2^40 ≈ 1.1e12: largest octave
  static constexpr int kBuckets =
      (kMaxExp - kMinExp + 1) * kSubBuckets + 2;  // + underflow/overflow

  void record(double v);
  /// p in [0, 1]. Returns 0 when empty.
  double quantile(double p) const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;
  double min() const;  // exact; 0 when empty
  double max() const;  // exact; 0 when empty
  void reset();

  /// Bucket index a value lands in (exposed for the exporters and tests).
  static int bucket_for(double v);
  /// Representative (midpoint) value of a bucket.
  static double bucket_value(int bucket);
  int64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  // Doubles stored as bit patterns: pre-C++20 there is no atomic<double>
  // fetch_add, so sum/min/max fold with a CAS loop — fine at the per-batch
  // / per-kernel-call frequencies histograms are recorded at.
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;

 public:
  Histogram();
};

enum class MetricKind { kCounter, kGauge, kHistogram, kCallback };

/// One scraped metric. For histograms the quantile summary is materialized
/// at scrape time so exporters never touch live atomics twice.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter/gauge/callback value
  // Histogram summary:
  int64_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, p999 = 0.0;
};

/// Name-keyed owner of every metric in the process. Metrics are created on
/// first lookup and never destroyed (the registry is immortal, so
/// instrumented code in late-exiting threads can never touch a dead
/// metric). Callback gauges let subsystems with their own internal state
/// (FFT plan cache, thread pool queue) surface values at scrape time
/// without restructuring their hot paths.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  /// Registered callbacks are invoked on every snapshot(); re-registering a
  /// name replaces the previous callback (used by ThreadPool::resize).
  void register_callback(const std::string& name, std::function<double()> fn);
  void unregister_callback(const std::string& name);

  /// Consistent-enough view for exporters: values are read metric-by-metric
  /// while writers keep running (each individual read is atomic; the scrape
  /// as a whole is not a cross-metric snapshot, which monitoring never
  /// needs). Sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

  /// Zero every counter/gauge/histogram (bench + test hook). Callback
  /// gauges read live state and are unaffected.
  void reset();

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // immortal, never freed
};

/// Convenience lookups — the idiomatic instrumentation pattern is
///   static obs::Counter& c = obs::counter("subsys.event");
///   c.add();
inline Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}

/// True when SAUFNO_PROFILE_KERNELS is set (or force_profile_kernels(true)
/// was called): gemm / FFT drivers then time themselves into
/// `kernel.*` histograms. A single relaxed bool load when disabled.
bool profile_kernels();
/// Programmatic override for benches/tests (wins over the env knob).
void force_profile_kernels(bool on);

}  // namespace obs
}  // namespace saufno
