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
///     aliases (same storage, new shape). Folded and aliased instructions
///     are then dropped from Plan::instrs.
///  3. Level assignment — instruction dependency depths, grouped into
///     Plan::levels, which fix the execution order and the liveness
///     granularity of pass 4.
///  4. Workspace planning — liveness analysis at level granularity, then
///     first-fit packing of every temp slot into ONE arena reservation
///     (Plan::arena_floats), offsets 16-float aligned.
///
/// No pass fuses: the ops layer already did (ops::conv2d with an
/// activation, ops::add_act), so the tracer records kConv2d with `act` and
/// kFusedAddAct directly, and the interpreter runs the same fused kernels.
/// The returned plan reports fused_ops (the ops those instructions stand
/// for, less one each) and folded_ops for benches and tests.
Plan compile(Plan traced);

}  // namespace plan
}  // namespace saufno
