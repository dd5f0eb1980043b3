// sweep_64: a design-space sweep at the paper's 64x64 high-fidelity grid.
// SAU-FNO runs behind an in-process InferenceEngine; one driver keeps a
// generation of 8 chip1 power maps in flight, so every forward is one B=8
// batch. Attention dominates this forward.

#include <future>
#include <memory>

#include "common/rng.h"
#include "plan/runner.h"
#include "probes.h"
#include "runtime/errors.h"
#include "runtime/inference_engine.h"
#include "train/model_zoo.h"
#include "workloads.h"

namespace perfbench {
namespace {

using saufno::runtime::InferenceEngine;

constexpr int64_t kRes = 64;
constexpr int kBatch = 8;
constexpr int kInputPool = 32;

InferenceEngine::Config engine_config() {
  InferenceEngine::Config cfg;
  cfg.max_batch = kBatch;
  // The batch pops as soon as the 8th map lands; the wait only bounds a
  // straggler, and padding keeps the forward shape fixed even then.
  cfg.max_wait_us = 50000;
  cfg.pad_to_full_batch = true;
  cfg.plan_mode = static_cast<int>(saufno::plan::Mode::kOn);
  cfg.expected_in_channels = chip1_power_channels() + 2;
  return cfg;
}

struct Built {
  std::shared_ptr<saufno::nn::Module> model;
  std::unique_ptr<InferenceEngine> engine;
};

Built build_engine() {
  Built b;
  b.model = saufno::train::make_model("SAU-FNO", chip1_power_channels() + 2,
                                      chip1_power_channels(), kWeightSeed);
  b.engine = std::make_unique<InferenceEngine>(b.model, chip1_normalizer(),
                                               engine_config());
  return b;
}

struct Generation {
  std::vector<int> inputs;      // indices into the input pool
  std::vector<Tensor> outputs;  // undefined where the map failed
};

/// Submit one generation, wait for all of it, record per-map latency.
Generation run_generation(InferenceEngine& engine,
                          const std::vector<Tensor>& pool,
                          std::vector<int> idx, SpanLog& spans, int64_t gen_id,
                          WindowStats* stats) {
  Generation g;
  g.inputs = std::move(idx);
  g.outputs.resize(g.inputs.size());
  ScopedSpan root(spans, "generation", -1, gen_id);
  std::vector<std::future<Tensor>> futs(g.inputs.size());
  std::vector<std::chrono::steady_clock::time_point> sent(g.inputs.size());
  std::vector<bool> submitted(g.inputs.size(), false);
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    ++stats->attempted;
    ScopedSpan s(spans, "runtime.submit", root.id(), gen_id);
    sent[i] = std::chrono::steady_clock::now();
    try {
      futs[i] = engine.submit(pool[static_cast<std::size_t>(g.inputs[i])]);
      submitted[i] = true;
    } catch (const saufno::runtime::EngineError&) {
      ++stats->failed;  // e.g. OverloadedError: counted, not retried
    }
  }
  for (std::size_t i = 0; i < g.inputs.size(); ++i) {
    if (!submitted[i]) continue;
    ScopedSpan s(spans, "runtime.result_wait", root.id(), gen_id);
    try {
      g.outputs[i] = futs[i].get();
      stats->latency_ms.push_back(ms_since(sent[i]));
    } catch (const std::exception&) {
      ++stats->failed;  // watchdog EngineError and every other typed error
    }
  }
  return g;
}

/// memcmp every successful output of `g` against the interpreted forward.
void check_generation(const Generation& g, const std::vector<Tensor>& pool,
                      const std::shared_ptr<saufno::nn::Module>& model,
                      Report* report) {
  std::vector<Tensor> maps;
  for (int i : g.inputs) maps.push_back(pool[static_cast<std::size_t>(i)]);
  const auto norm = chip1_normalizer();
  saufno::plan::PlanRunner interp(model, saufno::plan::Mode::kOff);
  const Tensor ref =
      norm.decode_targets(interp.forward(norm.encode_inputs(stack(maps))));
  for (std::size_t i = 0; i < g.outputs.size(); ++i) {
    if (!g.outputs[i].defined()) continue;
    if (!same_bits(g.outputs[i], row(ref, static_cast<int64_t>(i)))) {
      report->mismatch("sweep_64 map " + std::to_string(i) +
                       " differs from the interpreted forward");
    }
  }
}

}  // namespace

Report run_sweep_64(const Options& opts) {
  Report report;
  note_run_facts(opts, &report);
  const std::vector<Tensor> pool = chip1_model_inputs(kRes, kInputPool, opts.seed);
  saufno::Rng rng(opts.seed ^ 0x5eedULL);
  const auto draw = [&] {
    std::vector<int> idx(kBatch);
    for (int& i : idx) i = static_cast<int>(rng.next_below(kInputPool));
    return idx;
  };
  SpanLog off(false);

  // Set-up: cold start from the zoo to the first B=8 result (plan compile
  // included). This process's own cold start builds the engine the window
  // uses; two more are timed in child processes.
  std::vector<ColdStart> cold = child_cold_starts(opts, 2);
  WindowStats warm;
  const auto t0 = std::chrono::steady_clock::now();
  Built b = build_engine();
  (void)run_generation(*b.engine, pool, draw(), off, -1, &warm);
  cold.push_back(finish_cold_start(t0));
  if (opts.setup_probe) return cold_start_report(cold.back());
  if (warm.failed > 0) {
    report.note("set-up: %lld of %lld warm-up maps failed",
                static_cast<long long>(warm.failed),
                static_cast<long long>(warm.attempted));
  }

  std::vector<Generation> gens;
  const WindowFn window = [&](SpanLog& spans, WindowStats* stats) {
    // All 8 maps of a generation finish together, so the p90 of 100 maps
    // rests on the second-slowest of 13 generations. 160 maps (20
    // generations) steady it.
    const WindowClock clock(opts, 20 * kBatch);
    do {
      gens.push_back(run_generation(*b.engine, pool, draw(), spans,
                                    static_cast<int64_t>(gens.size()), stats));
    } while (!clock.done(static_cast<int64_t>(stats->latency_ms.size())));
    stats->seconds = clock.elapsed();
  };

  WindowStats w;
  WindowCounters counters;
  window(off, &w);
  counters.finish();
  const double rss = peak_rss_mb();
  report.attempted = w.attempted;
  report.failed = w.failed;
  report.note("timed window: plan-cache misses %.0f, FFT-plan-cache misses %.0f",
              counters.plan_misses(), counters.fft_plan_misses());

  // Correctness: the first generation and one drawn from the seed.
  check_generation(gens.front(), pool, b.model, &report);
  check_generation(gens[rng.next_below(gens.size())], pool, b.model, &report);

  if (!opts.trace) {
    report_end_to_end(opts, w, cold, rss, &report);
    return report;
  }
  counters.report_misses(&report);
  SpanLog spans(true);
  WindowStats traced;
  run_traced_window(window, spans, &traced, &report);
  report.set("runtime.batch_size_avg", b.engine->stats().avg_batch_size, "count");
  report_trace(opts, w, traced, spans, &report);

  LayerProbe probe;
  probe.model = b.model;
  for (int i : draw()) probe.engine_inputs.push_back(pool[static_cast<std::size_t>(i)]);
  probe.batch = chip1_normalizer().encode_inputs(stack(probe.engine_inputs));
  probe.engine = b.engine.get();
  probe_layers(probe, run_threads(opts), &report);
  return report;
}

}  // namespace perfbench
