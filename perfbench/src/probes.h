#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "nn/module.h"
#include "runtime/inference_engine.h"
#include "stats.h"

namespace perfbench {

/// What the per-layer probes need from a workload.
struct LayerProbe {
  /// The workload's model and one batch of its encoded input
  /// [B, C, H, W], exactly what the engine's forward sees.
  std::shared_ptr<saufno::nn::Module> model;
  Tensor batch;
  /// An idle engine serving the same model (required), and the B per-map
  /// tensors its submit() takes for that batch (the engine overhead probe).
  saufno::runtime::InferenceEngine* engine = nullptr;
  std::vector<Tensor> engine_inputs;
};

/// Traced-run probes shared by every workload: plan compile, the
/// plan-replay ledger (core.* and tensor.*), direct FFT calls, interpreter
/// vs. plan, the pool-size sweep and the engine overhead, plus wire codec
/// costs on the first engine input. Replay and compile run at `run_threads`,
/// the pool sweep at 1, nproc - 1 (runtime.forward_ms.threads_run) and
/// nproc. Leaves the pool at `run_threads`.
void probe_layers(const LayerProbe& probe, int run_threads, Report* report);

/// Counter deltas over a timed window: pool busy share and tasks per plan
/// run, arena hit rate, plan- and FFT-plan-cache misses, queue head wait.
/// Construct at the start of the window, call finish() at its end.
class WindowCounters {
 public:
  WindowCounters();
  void finish();
  double fft_plan_misses() const { return end_.delta(start_, "fft.plan_cache.misses"); }
  double plan_misses() const { return end_.delta(start_, "plan.cache.misses"); }
  /// The *.misses_timed validity counts (the untraced window's).
  void report_misses(Report* report) const;
  /// runtime.pool.*, runtime.arena.hit_rate, runtime.queue_wait_ms.p50 (the
  /// traced window's: pool busy time is only counted while the library's
  /// kernel profiling is on).
  void report_runtime(Report* report) const;

 private:
  ObsSnapshot start_;
  ObsSnapshot end_;
  double queue_wait_p50_ms_ = 0.0;
};

/// Median wall milliseconds of `fn`: one untimed warm-up call, then
/// repeats until `budget_ms` of measured time or `max_reps` calls. A
/// warm-up that alone exceeds the budget is the only sample, so a
/// multi-second call runs once.
template <typename Fn>
double median_ms(Fn&& fn, double budget_ms, int max_reps = 5) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double first = ms_since(t0);
  if (first > budget_ms) return first;
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.empty() ||
         (spent < budget_ms && static_cast<int>(samples.size()) < max_reps)) {
    const auto t1 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(ms_since(t1));
    spent += samples.back();
  }
  return median(samples);
}

}  // namespace perfbench
