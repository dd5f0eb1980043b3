#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "nn/module.h"
#include "plan/executor.h"
#include "tensor/tensor.h"

namespace saufno {
namespace plan {

/// Plan execution policy, selected per engine via Config or the
/// SAUFNO_PLAN environment knob (`on` / `off`, or 1/0).
enum class Mode : int {
  kOff = 0,  // always interpret (define-by-run ops::)
  kOn = 1,   // compile per input shape, execute the plan
};

/// Resolve Mode from SAUFNO_PLAN (hardened env_choice parse; unset => kOn).
Mode mode_from_env();
const char* mode_name(Mode m);

/// A plan compile that threw: an op with no opcode, an allocation failure,
/// an injected fault. The message names the input shape and the cause. A
/// compile depends only on that shape, so a caller serving a batch of one
/// shape fails the whole batch on it rather than retry parts of it.
class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serving-side entry point to the plan subsystem: owns one compiled plan
/// per input shape for a fixed model (the FFT plan cache pattern — compile
/// outside the lock, first published wins), or interprets every forward in
/// kOff mode.
///
/// Thread-safe. All forwards, and every trace, run under NoGradGuard — the
/// runner is for inference; training keeps the define-by-run path.
class PlanRunner {
 public:
  PlanRunner(std::shared_ptr<nn::Module> model, Mode mode);

  /// Run one forward. Plan-mode results are bit-identical to the
  /// interpreter's. A compile that fails throws CompileError and caches
  /// nothing, so the next forward of that shape compiles again.
  Tensor forward(const Tensor& input);

  /// Compile the plan for `shape` ahead of its first forward. Returns true
  /// when this call compiled it (false when already cached, or in kOff
  /// mode). A compile that fails throws CompileError and caches nothing,
  /// as in forward().
  bool prepare(const Shape& shape);

  Mode mode() const { return mode_; }
  /// Number of shapes with a cached plan.
  std::size_t cache_size() const;
  /// The compiled plan for `shape`, or nullptr when not compiled yet.
  std::shared_ptr<PlanExecutor> executor_for(const Shape& shape) const;

  /// Wall-clock phases of one plan compile. `trace_ms` is the recorded
  /// forward through the model (runs every kernel once on a zero probe —
  /// this, not the compiler, is where a multi-second compile goes);
  /// `lower_ms` is TraceSession graph extraction; `passes_ms` is the
  /// compiler pass pipeline (folding, liveness, arena layout, leveling).
  struct CompileBreakdown {
    double trace_ms = 0.0;
    double lower_ms = 0.0;
    double passes_ms = 0.0;
    double total_ms = 0.0;
  };

  /// Breakdown of the most recent successful compile_shape (any shape);
  /// all-zero until one completes. Also recorded per-compile into the
  /// plan.compile.{trace,lower,passes}_ms obs histograms.
  CompileBreakdown last_compile_breakdown() const;

 private:
  std::shared_ptr<PlanExecutor> get_or_compile(const Shape& shape);
  std::shared_ptr<PlanExecutor> compile_shape(const Shape& shape);

  std::shared_ptr<nn::Module> model_;
  Mode mode_;
  mutable std::mutex mu_;
  std::map<Shape, std::shared_ptr<PlanExecutor>> cache_;
  CompileBreakdown last_breakdown_;  // guarded by mu_
};

}  // namespace plan
}  // namespace saufno
