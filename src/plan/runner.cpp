#include "plan/runner.h"

#include <chrono>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/compile.h"
#include "plan/trace.h"

namespace saufno {
namespace plan {

namespace {

struct RunnerMetrics {
  obs::Counter& hits = obs::counter("plan.cache.hits");
  obs::Counter& misses = obs::counter("plan.cache.misses");
  obs::Gauge& size = obs::gauge("plan.cache.size");
  obs::Histogram& compile_ms = obs::histogram("plan.compile_ms");
  obs::Histogram& compile_trace_ms = obs::histogram("plan.compile.trace_ms");
  obs::Histogram& compile_lower_ms = obs::histogram("plan.compile.lower_ms");
  obs::Histogram& compile_passes_ms =
      obs::histogram("plan.compile.passes_ms");
};

RunnerMetrics& runner_metrics() {
  static RunnerMetrics m;
  return m;
}

/// A trace keeps every intermediate of one forward alive at once, tens of
/// MB at serving shapes. glibc keeps those pages resident once freed if a
/// longer-lived block lands above them in the heap (a SAU-FNO engine that
/// compiled [8,5,40,40] and [8,5,32,32] held 41 MB instead of 22), so
/// hand them back after each compile.
void release_freed_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

}  // namespace

Mode mode_from_env() {
  static const char* const kNames[] = {"off", "on"};
  return static_cast<Mode>(
      env_choice("SAUFNO_PLAN", static_cast<int>(Mode::kOn), kNames, 2));
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kOn:
      return "on";
  }
  return "?";
}

PlanRunner::PlanRunner(std::shared_ptr<nn::Module> model, Mode mode)
    : model_(std::move(model)), mode_(mode) {
  SAUFNO_CHECK(model_ != nullptr, "PlanRunner requires a model");
}

std::shared_ptr<PlanExecutor> PlanRunner::compile_shape(const Shape& shape) {
  SAUFNO_TRACE_SPAN("plan.compile");
  const auto ms_since = [](std::chrono::steady_clock::time_point a,
                           std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point t_traced, t_lowered, t1;
  std::shared_ptr<PlanExecutor> exec;
  try {
    NoGradGuard no_grad;
    // Trace on a zero probe: the plan depends only on shapes, and the
    // recorded kernels never branch on values.
    Var in{Tensor(shape)};
    TraceSession sess(model_->named_parameters(), in);
    Var out = model_->forward(in);
    t_traced = std::chrono::steady_clock::now();
    Plan lowered = sess.take_plan(out);
    t_lowered = std::chrono::steady_clock::now();
    Plan compiled = compile(std::move(lowered));
    t1 = std::chrono::steady_clock::now();
    exec = std::make_shared<PlanExecutor>(std::move(compiled));
  } catch (const std::exception& e) {
    throw CompileError("plan compile for input " + shape_str(shape) +
                       " failed: " + e.what());
  }

  CompileBreakdown bd;
  bd.trace_ms = ms_since(t0, t_traced);
  bd.lower_ms = ms_since(t_traced, t_lowered);
  bd.passes_ms = ms_since(t_lowered, t1);
  bd.total_ms = ms_since(t0, t1);
  RunnerMetrics& rm = runner_metrics();
  rm.compile_ms.record(bd.total_ms);
  rm.compile_trace_ms.record(bd.trace_ms);
  rm.compile_lower_ms.record(bd.lower_ms);
  rm.compile_passes_ms.record(bd.passes_ms);
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_breakdown_ = bd;
  }
  return exec;
}

PlanRunner::CompileBreakdown PlanRunner::last_compile_breakdown() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_breakdown_;
}

std::shared_ptr<PlanExecutor> PlanRunner::get_or_compile(const Shape& shape) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(shape);
    if (it != cache_.end()) {
      runner_metrics().hits.add();
      return it->second;
    }
  }
  runner_metrics().misses.add();
  // Compile OUTSIDE the lock (same discipline as the FFT plan cache): a
  // multi-second first compile must not stall forwards for other shapes.
  // Concurrent first-users may both compile; the first to publish wins and
  // the loser's work is dropped. A compile that throws CompileError caches
  // nothing, so the next forward of the shape compiles again.
  std::shared_ptr<PlanExecutor> exec = compile_shape(shape);
  release_freed_heap();
  std::lock_guard<std::mutex> lk(mu_);
  auto ins = cache_.emplace(shape, exec);
  runner_metrics().size.set(static_cast<int64_t>(cache_.size()));
  return ins.first->second;
}

bool PlanRunner::prepare(const Shape& shape) {
  if (mode_ == Mode::kOff) return false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cache_.count(shape) != 0) return false;
  }
  get_or_compile(shape);
  return true;
}

Tensor PlanRunner::forward(const Tensor& input) {
  if (mode_ == Mode::kOff) {
    NoGradGuard no_grad;
    return model_->forward(Var(input)).value();
  }
  std::shared_ptr<PlanExecutor> exec = get_or_compile(input.shape());
  SAUFNO_TRACE_SPAN("plan.execute");
  return exec->run(input);
}

std::size_t PlanRunner::cache_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

std::shared_ptr<PlanExecutor> PlanRunner::executor_for(
    const Shape& shape) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = cache_.find(shape);
  return it == cache_.end() ? nullptr : it->second;
}

}  // namespace plan
}  // namespace saufno
