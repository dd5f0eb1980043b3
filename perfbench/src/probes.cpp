#include "probes.h"

#include <algorithm>
#include <cstring>
#include <future>

#include "ledger.h"
#include "obs/metrics.h"
#include "plan/runner.h"
#include "runtime/thread_pool.h"
#include "serve/wire.h"

namespace perfbench {

using saufno::plan::Mode;
using saufno::plan::PlanRunner;
using saufno::runtime::ThreadPool;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// The ops whose tensor.<op>.* metrics are reported (absent ops read 0).
const char* const kTensorOps[] = {"bmm",    "scaled_softmax",  "permute",
                                  "conv2d", "matmul",          "spectral_conv2d",
                                  "resize_bilinear", "maxpool2d"};

void probe_wire(const Tensor& map, Report* report) {
  namespace serve = saufno::serve;
  serve::InferRequest req;
  req.id = 1;
  req.tenant = "job";
  req.input = map;
  std::vector<std::uint8_t> frame;
  const double encode_ms =
      median_ms([&] { frame = serve::encode_infer(req); }, 100.0, 200);
  const double decode_ms = median_ms(
      [&] {
        (void)serve::decode_frame(frame.data() + serve::kFrameHeaderBytes,
                                  frame.size() - serve::kFrameHeaderBytes);
      },
      100.0, 200);
  serve::Response resp;
  resp.id = 1;
  resp.has_tensor = true;
  resp.tensor = map;
  const double response_ms =
      median_ms([&] { (void)serve::encode_response(resp); }, 100.0, 200);
  report->set("serve.encode_us", encode_ms * 1e3, "us");
  report->set("serve.decode_us", decode_ms * 1e3, "us");
  report->set("serve.encode_response_us", response_ms * 1e3, "us");
}

}  // namespace

void probe_layers(const LayerProbe& probe, int run_threads, Report* report) {
  ThreadPool& pool = ThreadPool::instance();
  pool.resize(run_threads);
  const Tensor& x = probe.batch;

  // Plan compile: a fresh runner's first call minus a steady call.
  PlanRunner runner(probe.model, Mode::kOn);
  const auto t0 = std::chrono::steady_clock::now();
  const Tensor plan_out = runner.forward(x);
  const double first_ms = ms_since(t0);
  const double steady_ms =
      median_ms([&] { (void)runner.forward(x); }, 2000.0);
  report->set("plan.compile_ms", std::max(0.0, first_ms - steady_ms), "ms");
  report->set("plan.compile.trace_ms", runner.last_compile_breakdown().trace_ms,
              "ms");
  const auto exec = runner.executor_for(x.shape());
  if (exec == nullptr) {
    report->mismatch("plan did not compile for the workload batch");
    return;
  }
  const saufno::plan::Plan& plan = exec->plan();
  report->set("plan.instrs", static_cast<double>(plan.instrs.size()), "count");
  report->set("plan.fused_ops", static_cast<double>(plan.fused_ops), "count");
  report->set("plan.arena_mb",
              static_cast<double>(plan.arena_floats) * sizeof(float) / kMiB, "MB");
  report->set("tensor.largest_temp_mb", largest_temp_bytes(plan) / kMiB, "MB");

  const FftCost fft = time_plan_ffts(plan, 5);
  report->set("fft.rfft_2d.ms", fft.rfft_ms, "ms");
  report->set("fft.irfft_2d.ms", fft.irfft_ms, "ms");

  // Interpreter vs. plan on the same batch.
  PlanRunner interp(probe.model, Mode::kOff);
  const double interp_ms =
      median_ms([&] { (void)interp.forward(x); }, 1000.0);
  report->set("plan.interp_over_plan", interp_ms / steady_ms, "ratio");

  // Pool-size sweep of the compiled forward.
  const auto forward_at = [&](int threads) {
    pool.resize(threads);
    return median_ms([&] { (void)runner.forward(x); }, 1500.0);
  };
  const double ms_1 = forward_at(1);
  const double ms_nproc = forward_at(nproc());
  const double ms_run = forward_at(std::max(1, nproc() - 1));
  pool.resize(run_threads);
  report->set("runtime.forward_ms.threads_1", ms_1, "ms");
  report->set("runtime.forward_ms.threads_run", ms_run, "ms");
  report->set("runtime.forward_ms.threads_nproc", ms_nproc, "ms");
  report->set("runtime.parallel_speedup", ms_1 / ms_run, "ratio");

  // Engine overhead: one whole batch through submit() minus the bare
  // forward, timed in alternating pairs so host drift cancels.
  const auto through_engine = [&] {
    std::vector<std::future<Tensor>> futs;
    for (const Tensor& t : probe.engine_inputs) {
      futs.push_back(probe.engine->submit(t));
    }
    for (auto& f : futs) (void)f.get();
  };
  through_engine();
  std::vector<double> diffs;
  double spent = 0.0;
  do {
    auto t = std::chrono::steady_clock::now();
    (void)runner.forward(x);
    const double bare = ms_since(t);
    t = std::chrono::steady_clock::now();
    through_engine();
    const double engine = ms_since(t);
    diffs.push_back(engine - bare);
    spent += bare + engine;
  } while (spent < 3000.0 && diffs.size() < 5);
  report->set("runtime.engine_overhead_ms", median(diffs), "ms");
  probe_wire(probe.engine_inputs.front(), report);

  // Layer ledger: replay every instruction, at the run's pool size. Last,
  // because the replay changes malloc settings while it runs.
  const int reps = std::clamp(static_cast<int>(1500.0 / std::max(steady_ms, 1.0)), 1, 5);
  const Ledger ledger = replay_plan(plan, x, reps);
  if (!same_bits(ledger.output, plan_out)) {
    report->mismatch("plan replay output differs from PlanRunner::forward");
  }
  const auto groups = ledger.ms_by_group();
  const auto group_ms = [&](const char* g) {
    const auto it = groups.find(g);
    return it == groups.end() ? 0.0 : it->second;
  };
  report->set("core.attention.ms", group_ms("attention"), "ms");
  report->set("core.attention.share",
              ledger.total_ms > 0 ? group_ms("attention") / ledger.total_ms : 0.0,
              "ratio");
  report->set("core.spectral.ms", group_ms("spectral"), "ms");
  report->set("core.unet.ms", group_ms("unet"), "ms");
  report->set("core.pointwise.ms", group_ms("pointwise"), "ms");
  report->set("core.replay_ms", ledger.total_ms, "ms");
  report->set("core.forward_ms", steady_ms, "ms");
  report->set("core.replay_coverage", ledger.total_ms / steady_ms, "ratio");
  const auto ops = ledger.ms_by_op();
  for (const char* op : kTensorOps) {
    const auto it = ops.find(op);
    const double ms = it == ops.end() ? 0.0 : it->second;
    const std::string base = std::string("tensor.") + op;
    report->set(base + ".ms", ms, "ms");
    if (std::strcmp(op, "permute") != 0) {  // data movement: bytes only
      report->set(base + ".gflops",
                  ms > 0 ? ledger.flops_of_op(op) / (ms * 1e6) : 0.0, "GFLOP/s");
    }
    report->set(base + ".computed_gb", ledger.bytes_of_op(op) / 1e9, "GB");
  }
}

WindowCounters::WindowCounters() : start_(ObsSnapshot::take()) {
  saufno::obs::histogram("queue.head_wait_ms").reset();
}

void WindowCounters::finish() {
  end_ = ObsSnapshot::take();
  queue_wait_p50_ms_ = saufno::obs::histogram("queue.head_wait_ms").quantile(0.5);
}

void WindowCounters::report_misses(Report* report) const {
  report->set("fft.plan_cache.misses_timed", fft_plan_misses(), "count");
  report->set("plan.cache.misses_timed", plan_misses(), "count");
}

void WindowCounters::report_runtime(Report* report) const {
  const auto d = [&](const char* name) { return end_.delta(start_, name); };
  const double busy = d("pool.worker_busy_us"), idle = d("pool.worker_idle_us");
  report->set("runtime.pool.busy_frac", busy + idle > 0 ? busy / (busy + idle) : 0.0,
              "ratio");
  const double runs = d("plan.runs");
  report->set("runtime.pool.tasks_per_forward",
              runs > 0 ? d("pool.tasks_submitted") / runs : 0.0, "count");
  const double hits = d("arena.hits"), misses = d("arena.misses");
  report->set("runtime.arena.hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->set("runtime.queue_wait_ms.p50", queue_wait_p50_ms_, "ms");
}

}  // namespace perfbench
