#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "common/env.h"
#include "fft/plan.h"

namespace saufno {
namespace obs {

int shard_index() {
  static std::atomic<int> next{0};
  thread_local int idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kCounterShards - 1);
  return idx;
}

namespace {

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double double_of(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// CAS-fold `v` into an atomic double bit pattern with `op`.
template <typename Op>
void fold_double(std::atomic<uint64_t>& cell, double v, Op op) {
  uint64_t cur = cell.load(std::memory_order_relaxed);
  for (;;) {
    const double folded = op(double_of(cur), v);
    const uint64_t want = bits_of(folded);
    if (want == cur) return;
    if (cell.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

Histogram::Histogram()
    : min_bits_(bits_of(std::numeric_limits<double>::infinity())),
      max_bits_(bits_of(-std::numeric_limits<double>::infinity())) {}

int Histogram::bucket_for(double v) {
  if (!(v > 0.0)) return 0;  // underflow bucket: v <= 0 or NaN
  int e;
  const double frac = std::frexp(v, &e);  // v = frac * 2^e, frac in [0.5, 1)
  if (e < kMinExp) return 0;
  if (e > kMaxExp) return kBuckets - 1;  // overflow bucket
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets));
  return 1 + (e - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_value(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int i = bucket - 1;
  const int e = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  // Midpoint of the bucket's [lo, lo + width) slice of octave [2^(e-1), 2^e).
  const double lo = 0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets);
  const double mid = lo + 1.0 / (4.0 * kSubBuckets);
  return std::ldexp(mid, e);
}

void Histogram::record(double v) {
  buckets_[bucket_for(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  fold_double(sum_bits_, v, [](double a, double b) { return a + b; });
  fold_double(min_bits_, v, [](double a, double b) { return b < a ? b : a; });
  fold_double(max_bits_, v, [](double a, double b) { return b > a ? b : a; });
}

double Histogram::sum() const {
  return count() > 0 ? double_of(sum_bits_.load(std::memory_order_relaxed))
                     : 0.0;
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? double_of(min_bits_.load(std::memory_order_relaxed))
                     : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? double_of(max_bits_.load(std::memory_order_relaxed))
                     : 0.0;
}

double Histogram::quantile(double p) const {
  // Bucket counts and the total are read while writers may be hot; clamp
  // the target into whatever total this scan observes so a racing record
  // can never walk the rank past the end.
  int64_t total = 0;
  int64_t counts[kBuckets];
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total <= 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double lo = min(), hi = max();
  // The tails are tracked exactly — don't route them through a bucket
  // midpoint at all.
  if (p <= 0.0) return lo;
  if (p >= 1.0) return hi;
  // ceil(p * total), rank 1-based; p=0 -> first sample (exact min).
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(total)));
  rank = std::min(total, std::max<int64_t>(1, rank));
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Clamp the midpoint estimate into the exact observed range so the
      // tails are exact: the first bucket reports min, the last max.
      return std::min(hi, std::max(lo, bucket_value(i)));
    }
  }
  return hi;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(bits_of(0.0), std::memory_order_relaxed);
  min_bits_.store(bits_of(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(bits_of(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex m;
  // node-based maps: references handed to callers stay valid forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::function<double()>> callbacks;
};

Registry::Registry() : impl_(new Impl()) {
  // Built-in callback gauge: the FFT plan cache keeps its own size and
  // surfaces it at scrape time instead of double-counting on its hot path.
  impl_->callbacks["fft.plan_cache.size"] = [] {
    return static_cast<double>(fft::plan_cache_size());
  };
}

Registry& Registry::instance() {
  // Immortal: instrumented code on late-exiting threads (pool workers,
  // client threads, thread_local destructors at process teardown) must
  // never observe a destroyed registry.
  static Registry* r = new Registry();
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::register_callback(const std::string& name,
                                 std::function<double()> fn) {
  std::lock_guard<std::mutex> lk(impl_->m);
  impl_->callbacks[name] = std::move(fn);
}

void Registry::unregister_callback(const std::string& name) {
  std::lock_guard<std::mutex> lk(impl_->m);
  impl_->callbacks.erase(name);
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  std::vector<MetricSnapshot> out;
  out.reserve(impl_->counters.size() + impl_->gauges.size() +
              impl_->histograms.size() + impl_->callbacks.size());
  for (const auto& [name, c] : impl_->counters) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : impl_->gauges) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.value = static_cast<double>(g->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : impl_->histograms) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.p50 = h->quantile(0.50);
    s.p95 = h->quantile(0.95);
    s.p99 = h->quantile(0.99);
    s.p999 = h->quantile(0.999);
    out.push_back(std::move(s));
  }
  for (const auto& [name, fn] : impl_->callbacks) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricKind::kCallback;
    s.value = fn();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(impl_->m);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

namespace {
// -1 = follow the env knob; 0/1 = forced by force_profile_kernels.
std::atomic<int> g_profile_override{-1};

bool profile_env() {
  static const bool on = env_int_in_range("SAUFNO_PROFILE_KERNELS", 0, 0, 1) != 0;
  return on;
}
}  // namespace

bool profile_kernels() {
  const int o = g_profile_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return profile_env();
}

void force_profile_kernels(bool on) {
  g_profile_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace saufno
