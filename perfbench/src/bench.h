#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/normalizer.h"
#include "spans.h"
#include "tensor/tensor.h"

namespace perfbench {

using saufno::Tensor;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: shortest set-up, no minimum sample count.
  bool smoke = false;
  /// Scratch directory for checkpoints and span dumps, under the working
  /// directory (created if absent).
  std::string workdir = ".bench_build/perfbench-work";
  /// Child mode: time one cold start of the workload and exit.
  bool setup_probe = false;
};

/// One run's result: the JSON line printed last on stdout, plus
/// free-form notes printed before it.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A correctness-gate failure: recorded as a note and clears `correct`.
  void mismatch(const std::string& what);
  /// The single-line JSON object run.py reads.
  std::string result_json() const;
};

// --- process facts ----------------------------------------------------------
int nproc();
/// Peak resident set (VmHWM) since the process started or since the last
/// reset_peak_rss(), in MiB; ru_maxrss where /proc is unavailable.
double peak_rss_mb();
/// Restart the peak at the current resident set (/proc/self/clear_refs).
void reset_peak_rss();

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

// --- inputs -----------------------------------------------------------------
/// Chip1 power maps rasterized at res x res, drawn from `seed`: each entry
/// is [device_layers, res, res] in W/m^2.
std::vector<Tensor> chip1_power_maps(int64_t res, int count, std::uint64_t seed);
/// Steady-state model inputs: a chip1 power map plus data::coord_channels,
/// [device_layers + 2, res, res].
std::vector<Tensor> chip1_model_inputs(int64_t res, int count,
                                       std::uint64_t seed);
/// Number of chip1 device layers (power channels).
int64_t chip1_power_channels();
/// Fixed normalizer for every engine: chip1 ambient, a power scale fitted
/// on a fixed-seed chip1 sample, a fixed temperature scale.
saufno::data::Normalizer chip1_normalizer();
/// Stack [C, H, W] tensors into [N, C, H, W].
Tensor stack(const std::vector<Tensor>& items);
/// Row `i` of a [N, ...] tensor, copied.
Tensor row(const Tensor& batch, int64_t i);
/// Bitwise equality of shape and contents.
bool same_bits(const Tensor& a, const Tensor& b);

/// Weights for every model come from the zoo at this seed.
constexpr std::uint64_t kWeightSeed = 42;

// --- obs counters over a window ----------------------------------------------
/// Values of the library's obs counters and callback gauges at one instant.
class ObsSnapshot {
 public:
  static ObsSnapshot take();
  double get(const std::string& name) const;
  /// this - earlier, for one name.
  double delta(const ObsSnapshot& earlier, const std::string& name) const {
    return get(name) - earlier.get(name);
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
