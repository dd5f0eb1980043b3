#pragma once

#include "plan/ir.h"

namespace saufno {
namespace plan {

/// Lower a traced Plan into its executable form. Passes, in order:
///
///  1. Constant folding — instructions whose inputs are all kParam/kConst
///     are evaluated once at compile time (through the executor's own
///     kernels, so folded values are bit-identical to what the interpreter
///     would compute) and their outputs become kConst slots. Weight-derived
///     prep work (reshaped attention projections, constant trunk inputs)
///     disappears from the hot path.
///  2. Reshape aliasing — kReshape instructions become zero-cost slot
///     aliases (same storage, new shape).
///  3. Fusion peephole — act(add) and act(add(add)) collapse into
///     kFusedAddAct (bias+activation in one sweep), and an activation
///     following a kConv2d folds into the conv's epilogue. Attention needs
///     no pass: its scores, softmax and combination are traced as one
///     kAttention instruction. Only float-exact fusions are performed, so
///     the bit-identity contract survives.
///  4. Dead-code elimination of instructions orphaned by 1–3.
///  5. Level assignment — instruction dependency depths, grouped into
///     Plan::levels, which fix the execution order and the liveness
///     granularity of pass 6.
///  6. Workspace planning — liveness analysis at level granularity, then
///     first-fit packing of every temp slot into ONE arena reservation
///     (Plan::arena_floats), offsets 16-float aligned.
///
/// The returned plan reports fused_ops / folded_ops for benches and tests.
Plan compile(Plan traced);

}  // namespace plan
}  // namespace saufno
