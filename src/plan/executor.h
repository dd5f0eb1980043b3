#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "plan/ir.h"
#include "runtime/workspace.h"
#include "tensor/tensor.h"

namespace saufno {
namespace plan {

// ---------------------------------------------------------------------------
// Plan VM: runs a compiled Plan's instruction stream through one switch on
// the opcode. Every case is a thin shim onto the SAME *_into / ops::fwd::
// code the interpreter runs, which is what makes plan-mode outputs
// bit-identical to interpreted ones.
// ---------------------------------------------------------------------------

/// Evaluate ONE instruction against explicit slot values, allocating the
/// result on the heap. Used by the compiler's constant-folding pass and by
/// unit tests — runs the exact same kernel the executor dispatches.
Tensor eval_single(const Instr& instr, const std::vector<Tensor>& slot_values,
                   const Shape& out_shape);

/// Runs a compiled Plan. Thread-safe: concurrent run() calls check out
/// distinct BoundBuffers (arena reservation + prebound slot tensors) from an
/// internal pool, so steady-state execution performs zero per-op heap
/// allocations — the only allocation per call is the output clone.
class PlanExecutor {
 public:
  explicit PlanExecutor(Plan plan);

  /// Execute the plan on `input` (shape must equal plan().in_shape).
  /// Returns a freshly allocated output tensor; bit-identical to running
  /// the interpreted forward on the same input.
  Tensor run(const Tensor& input);

  const Plan& plan() const { return *plan_; }

 private:
  struct BoundBuffer {
    runtime::Reservation arena;
    std::vector<Tensor> slots;
  };

  std::unique_ptr<BoundBuffer> acquire_buffer();
  void release_buffer(std::unique_ptr<BoundBuffer> b);

  std::shared_ptr<const Plan> plan_;
  /// Slots that alias the input root — rebound at the top of every run().
  std::vector<int32_t> input_aliases_;
  std::mutex pool_mu_;
  std::vector<std::unique_ptr<BoundBuffer>> pool_;
};

}  // namespace plan
}  // namespace saufno
