// Transient rollout serving benchmark: sessions x steps scaling of the
// RolloutEngine. The property being measured is the core claim of the
// rollout layer — throughput scales with CONCURRENT SESSION COUNT, not
// rollout length, because the engine coalesces the current step of every
// live session into one batched forward.
//
// Results are printed AND written to BENCH_rollout.json. `--smoke` (or
// SAUFNO_SMOKE=1) shrinks sizes so CI can run it in seconds and writes
// BENCH_rollout.smoke.json instead. In smoke mode the binary evaluates
// three gates (batching, the 2% telemetry budget, multicore scaling),
// prints a FAIL line for each that fails, and then exits 1 if any did, so a
// regression breaks the pipeline instead of a graph. A sanitized build
// (ASan or TSan) prints the telemetry and scaling numbers without gating
// them; only its batching gate can fail.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/normalizer.h"
#include "data/sequence.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/rollout_engine.h"
#include "runtime/thread_pool.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

struct Entry {
  int threads = 0;
  int sessions = 0;
  int steps = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;      // session-steps served per second
  double per_step_latency_ms = 0.0;
  double avg_batch_size = 0.0;
};

std::vector<Entry> g_entries;

/// The pool size SAUFNO_NUM_THREADS would produce — the matrix sweep
/// resizes the pool per row and restores this before the telemetry probe.
int env_default_threads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  return env_int_in_range("SAUFNO_NUM_THREADS", hw, 1, 1024);
}

runtime::RolloutEngine::Config engine_config(int n_sessions) {
  runtime::RolloutEngine::Config cfg;
  // Lockstep waves are exactly n_sessions wide: with max_batch matching,
  // each wave pops the moment the last submission lands instead of idling
  // out the batching deadline (which is only the straggler fallback here).
  cfg.engine.max_batch =
      env_int_in_range("SAUFNO_MAX_BATCH", n_sessions, 1, 1024);
  cfg.engine.max_wait_us = 20000;
  return cfg;
}

/// Opens `n_sessions` cold sessions on `engine`, drives each through
/// `steps` random power maps, and returns the seconds engine.run took.
double serve_sessions(runtime::RolloutEngine& engine,
                      const data::Normalizer& norm,
                      const data::RolloutSpec& spec, int n_sessions,
                      int steps, int64_t res) {
  Rng rng(17);
  std::vector<std::unique_ptr<runtime::RolloutSession>> sessions;
  std::vector<runtime::RolloutSession*> raw;
  std::vector<Tensor> powers;
  const Tensor init =
      Tensor::full({spec.state_channels, res, res},
                   static_cast<float>(norm.ambient()));
  for (int s = 0; s < n_sessions; ++s) {
    sessions.push_back(engine.open_session(init.clone()));
    raw.push_back(sessions.back().get());
    powers.push_back(Tensor::rand_uniform(
        {steps, spec.power_channels, res, res}, rng, 0.f, 9e4f));
  }
  Timer t;
  (void)engine.run(raw, powers);
  return t.seconds();
}

Entry run_config(const std::shared_ptr<nn::Module>& model,
                 const data::Normalizer& norm, const data::RolloutSpec& spec,
                 int n_sessions, int steps, int64_t res) {
  runtime::RolloutEngine engine(model, norm, spec, engine_config(n_sessions));
  Entry e;
  e.seconds = serve_sessions(engine, norm, spec, n_sessions, steps, res);
  e.threads = runtime::ThreadPool::instance().num_threads();
  e.sessions = n_sessions;
  e.steps = steps;
  const double total_steps = static_cast<double>(n_sessions) * steps;
  e.steps_per_sec = total_steps / e.seconds;
  e.per_step_latency_ms = e.seconds / steps * 1e3;  // wall time per wave
  e.avg_batch_size = engine.stats().avg_batch_size;
  return e;
}

/// Telemetry overhead probe: one engine serves `pairs` pairs of windows of
/// the reference config, one window with every obs feature live (tracing
/// to a file + kernel profiling forced on) and one without. Each pair's
/// steps/s loss is one sample; the median over pairs is the overhead, so a
/// scheduler hiccup moves one sample, not the result. The side that runs
/// first alternates, so slow drift cancels. A first untimed window compiles
/// the plan and warms the workspace.
double measure_telemetry_overhead(const std::shared_ptr<nn::Module>& model,
                                  const data::Normalizer& norm,
                                  const data::RolloutSpec& spec, int n_sessions,
                                  int steps, int64_t res, int pairs) {
  runtime::RolloutEngine engine(model, norm, spec, engine_config(n_sessions));
  auto window = [&](bool telemetry) {
    if (telemetry) {
      obs::trace_start("BENCH_rollout_trace.json");
      obs::force_profile_kernels(true);
    }
    const double sec =
        serve_sessions(engine, norm, spec, n_sessions, steps, res);
    if (telemetry) {
      obs::force_profile_kernels(false);
      obs::trace_stop();
    }
    return sec;
  };
  (void)window(false);
  std::vector<double> pct;
  for (int p = 0; p < pairs; ++p) {
    const bool on_first = p % 2 == 1;
    const double first = window(on_first);
    const double second = window(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    // Steps/s lost: (1/off - 1/on) / (1/off).
    pct.push_back((on - off) / on * 100.0);
  }
  std::sort(pct.begin(), pct.end());
  const double median = pct[pct.size() / 2];
  std::printf("\ntelemetry overhead: median %.2f%% over %d paired windows of "
              "%d steps x %d sessions (range %.2f%% .. %.2f%%)\n",
              median, pairs, steps, n_sessions, pct.front(), pct.back());
  return median;
}

void write_json(const char* path, bool smoke, int64_t res,
                double telemetry_overhead_pct) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "bench_rollout");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("resolution", res);
  w.field("threads", runtime::ThreadPool::instance().num_threads());
  w.field("telemetry_overhead_pct", telemetry_overhead_pct, 2);
  w.key("results");
  w.begin_array();
  for (const auto& e : g_entries) {
    w.begin_object();
    w.field("threads", e.threads);
    w.field("sessions", e.sessions);
    w.field("steps", e.steps);
    w.field("seconds", e.seconds, 6);
    w.field("steps_per_sec", e.steps_per_sec, 2);
    w.field("per_step_latency_ms", e.per_step_latency_ms, 3);
    w.field("avg_batch_size", e.avg_batch_size, 3);
    w.end_object();
  }
  w.end_array();
  w.key("obs");
  w.raw_value(obs::dump_json());
  w.end_object();
  w.write_file(path);
}

}  // namespace
}  // namespace saufno

int main(int argc, char** argv) {
  using namespace saufno;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* env = std::getenv("SAUFNO_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke = true;

  const int64_t res = smoke ? 12 : 16;
  const int steps = smoke ? 6 : 32;
  const std::vector<int> session_counts =
      smoke ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8, 16};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};

  data::RolloutSpec spec;
  spec.dt = 0.01;
  spec.state_channels = 1;
  spec.power_channels = 1;
  // Untrained weights: identical compute cost to a trained surrogate, and
  // the bench stays self-contained (no dataset / training dependency).
  auto model = train::make_model(smoke ? "SAU-FNO-micro" : "SAU-FNO",
                                 spec.in_channels(), spec.out_channels(),
                                 /*seed=*/42);
  const auto norm =
      data::Normalizer::from_stats(318.0, 3e4, 9.0, spec.power_channels);

  std::printf("== bench_rollout (%s mode) ==\n", smoke ? "smoke" : "full");
  std::printf("res %lldx%lld, %d steps/session, threads x sessions matrix\n\n",
              static_cast<long long>(res), static_cast<long long>(res), steps);
  std::printf("%8s %10s %8s %12s %16s %16s %12s\n", "threads", "sessions",
              "steps", "seconds", "steps/sec", "ms/step-wave", "avg batch");
  // threads x sessions matrix: the pool is resized between configs (each
  // engine is constructed and joined inside run_config, so no submissions
  // race the resize).
  for (const int threads : thread_counts) {
    runtime::ThreadPool::instance().resize(threads);
    for (const int n : session_counts) {
      const auto e = run_config(model, norm, spec, n, steps, res);
      g_entries.push_back(e);
      std::printf("%8d %10d %8d %12.4f %16.1f %16.3f %12.2f\n", e.threads,
                  e.sessions, e.steps, e.seconds, e.steps_per_sec,
                  e.per_step_latency_ms, e.avg_batch_size);
    }
  }
  // Telemetry overhead probe at the widest smoke config (8 sessions keeps
  // the batcher busy, so idle-queue time doesn't mask per-event cost), back
  // at the environment-default pool size. On a noisy 4-vCPU host, 201 pairs
  // of ~25 ms smoke windows put the median within about 0.5% of the true
  // overhead; with telemetry off on both sides it read -0.2..0.3%.
  runtime::ThreadPool::instance().resize(env_default_threads());
  const double overhead_pct =
      measure_telemetry_overhead(model, norm, spec, smoke ? 8 : 16,
                                 smoke ? 24 : steps, res, smoke ? 201 : 31);

  write_json(smoke ? "BENCH_rollout.smoke.json" : "BENCH_rollout.json", smoke,
             res, overhead_pct);
  if (!smoke) return 0;

  // Smoke-mode CI gates. Each one is evaluated and reported, so one failure
  // never hides another.
  int rc = 0;
  // Concurrent sessions must actually coalesce.
  for (const auto& e : g_entries) {
    if (e.sessions >= 4 && e.avg_batch_size <= 1.0) {
      std::printf("FAIL: %d concurrent sessions averaged batch size %.2f "
                  "(<= 1): rollout batching regressed\n",
                  e.sessions, e.avg_batch_size);
      rc = 1;
    }
  }
  // The timing gates check the build that produces the committed numbers.
  // A sanitized build times instrumented code, where single telemetry
  // window pairs span about -211..+74% under ASan+UBSan: it prints both
  // numbers and gates neither.
  const int widest = session_counts.back();
  double at1 = 0.0, at8 = 0.0;
  for (const auto& e : g_entries) {
    if (e.sessions != widest) continue;
    if (e.threads == 1) at1 = e.steps_per_sec;
    if (e.threads == 8) at8 = e.steps_per_sec;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::printf("sanitized build: telemetry overhead %.2f%% and %d-session "
              "scaling %.2fx (8 threads over 1) are not gated\n",
              overhead_pct, widest, at1 > 0.0 ? at8 / at1 : 0.0);
#else
  // Telemetry must stay within the 2% budget, judged on the paired-window
  // median.
  if (overhead_pct > 2.0) {
    std::printf("FAIL: telemetry overhead %.2f%% exceeds the 2%% budget\n",
                overhead_pct);
    rc = 1;
  }
  // Multicore scaling. On a machine with >= 4 real cores, the widest
  // session count at 8 threads must be measurably above the same config at
  // 1 thread — a modest 1.15x bar so a scheduler hiccup doesn't flake CI,
  // but a regression to serialized nesting (1.0x) fails.
  // Skipped on smaller runners, where an 8-lane pool timeshares cores and
  // the comparison measures nothing.
  if (std::thread::hardware_concurrency() >= 4 && at1 > 0.0 && at8 > 0.0 &&
      at8 < 1.15 * at1) {
    std::printf("FAIL: %d-session rollout at 8 threads (%.1f steps/s) is "
                "not measurably above 1 thread (%.1f steps/s): multicore "
                "scaling regressed\n",
                widest, at8, at1);
    rc = 1;
  }
#endif
  return rc;
}
