#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "chip/chips.h"
#include "chip/power_gen.h"
#include "common/rng.h"
#include "data/sequence.h"
#include "obs/metrics.h"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::note(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

void Report::mismatch(const std::string& what) {
  correct = false;
  notes.push_back("MISMATCH: " + what);
}

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Full precision; a non-finite value (never expected) is written as
    // null so the line stays valid JSON and run.py rejects it.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n >= 1) return static_cast<int>(n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::vector<Tensor> chip1_power_maps(int64_t res, int count,
                                     std::uint64_t seed) {
  const saufno::chip::ChipSpec spec = saufno::chip::make_chip1();
  const saufno::chip::PowerGenerator gen(spec);
  saufno::Rng rng(seed);
  const int r = static_cast<int>(res);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto maps = gen.rasterize(gen.sample(rng), r, r);
    Tensor t({static_cast<int64_t>(maps.size()), res, res});
    float* p = t.data();
    for (const auto& m : maps) p = std::copy(m.begin(), m.end(), p);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tensor> chip1_model_inputs(int64_t res, int count,
                                       std::uint64_t seed) {
  const Tensor coords = saufno::data::coord_channels(res, res);
  std::vector<Tensor> out;
  for (const Tensor& p : chip1_power_maps(res, count, seed)) {
    Tensor t({p.size(0) + 2, res, res});
    float* d = std::copy(p.data(), p.data() + p.numel(), t.data());
    std::copy(coords.data(), coords.data() + coords.numel(), d);
    out.push_back(std::move(t));
  }
  return out;
}

int64_t chip1_power_channels() {
  return static_cast<int64_t>(
      saufno::chip::make_chip1().device_layer_indices().size());
}

saufno::data::Normalizer chip1_normalizer() {
  static const saufno::data::Normalizer norm = [] {
    double sum = 0.0, sq = 0.0, n = 0.0;
    for (const Tensor& t : chip1_power_maps(32, 16, /*seed=*/2024)) {
      for (int64_t i = 0; i < t.numel(); ++i) {
        const double v = t.data()[i];
        sum += v;
        sq += v * v;
        n += 1.0;
      }
    }
    const double mean = sum / n;
    const double sd = std::sqrt(std::max(sq / n - mean * mean, 1e-12));
    return saufno::data::Normalizer::from_stats(
        saufno::chip::make_chip1().ambient, sd, /*temp_scale=*/10.0,
        chip1_power_channels());
  }();
  return norm;
}

Tensor stack(const std::vector<Tensor>& items) {
  saufno::Shape shape = items.front().shape();
  shape.insert(shape.begin(), static_cast<int64_t>(items.size()));
  Tensor out(shape);
  float* p = out.data();
  for (const Tensor& t : items) p = std::copy(t.data(), t.data() + t.numel(), p);
  return out;
}

Tensor row(const Tensor& batch, int64_t i) {
  saufno::Shape shape(batch.shape().begin() + 1, batch.shape().end());
  Tensor out(shape);
  const int64_t n = out.numel();
  std::copy(batch.data() + i * n, batch.data() + (i + 1) * n, out.data());
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

ObsSnapshot ObsSnapshot::take() {
  ObsSnapshot s;
  for (const auto& m : saufno::obs::Registry::instance().snapshot()) {
    if (m.kind == saufno::obs::MetricKind::kHistogram) {
      s.values_[m.name] = static_cast<double>(m.count);
    } else {
      s.values_[m.name] = m.value;
    }
  }
  return s;
}

double ObsSnapshot::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
