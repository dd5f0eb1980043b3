#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace saufno {
namespace plan {

// ---------------------------------------------------------------------------
// Flat execution-plan IR (the "ISA" half of the ISA/VM split): a traced
// forward becomes a list of instructions over pre-resolved tensor slots with
// static shapes. The tracer (trace.h) emits it, the compiler (compile.h)
// folds/fuses/lays out workspace on it, and the executor (executor.h) runs
// it through a kernel registration table. Every opcode's runtime kernel is
// the SAME code the interpreted ops:: layer calls (the *_into variants in
// tensor/tensor_ops.h and the ops::fwd helpers), which is what makes the
// plan path bit-identical to the interpreter.
// ---------------------------------------------------------------------------

enum class OpCode : std::uint8_t {
  // Elementwise binary (numpy broadcasting).
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Scalar elementwise (scalar in Instr::fval).
  kAddScalar,
  kMulScalar,
  // Elementwise unary.
  kRelu,
  kGelu,
  kTanh,
  kSigmoid,
  kExp,
  kLog,
  kSqrt,
  kSquare,
  kAbs,
  // Layout. kReshape is compiled away into a slot alias (zero cost).
  kReshape,
  kPermute,         // ivals = permutation
  kSlice,           // ivals = {dim, start, length}
  kCat,             // ivals = {dim}; variadic inputs
  kPad2d,           // ivals = {top, bottom, left, right}
  // Linear algebra / structured ops.
  kMatmul,
  kBmm,
  kSoftmax,         // softmax over the last dim
  kSumDim,          // ivals = {dim, keepdim}
  kResizeBilinear,  // ivals = {oh, ow}
  kConv2d,          // ivals = {stride, pad, has_bias}; in = {x, w[, b]};
                    // act != kNone when an activation was fused in
  kMaxPool2d,       // ivals = {kernel}
  kSpectralConv2d,  // ivals = {m1, m2, cout}; in = {x, w}
  kSpectralConv3d,  // ivals = {m1, m2, m3, cout}; in = {x, w}
  kAttention,       // in = {q [B,N,d], k [B,d,N], v [B,C,N]}, fval = scale;
                    // out [B,C,N] = v softmax_lastdim(q k * scale)^T,
                    // row-blocked (no [N,N] slot)
  // Compiler-synthesized fusions (never emitted by the tracer).
  kFusedAddAct,     // out = act(in0 + in1 [+ in2]); 2-input form may
                    // broadcast (bias), 3-input form requires equal shapes
  kScaledSoftmax,   // out = softmax_lastdim(in * fval). Nothing emits it
                    // and no kernel runs it since kAttention took the
                    // attention softmax; kept while the perfbench ledger
                    // names it
  kCount
};

/// Activation fused into a producer instruction. The numeric values match
/// the codes tensor/tensor_ops.h act_apply() understands.
enum class Act : std::uint8_t { kNone = 0, kRelu = 1, kGelu = 2, kTanh = 3 };

/// What a slot binds to at execution time.
enum class SlotKind : std::uint8_t {
  kInput,  // the plan's input tensor, rebound per run
  kParam,  // a module parameter; shares the module's storage
  kConst,  // captured or constant-folded value, owned by the plan
  kTemp    // intermediate; lives in the plan's arena reservation
};

struct Slot {
  SlotKind kind = SlotKind::kTemp;
  Shape shape;
  /// Bound value for kParam (shared with the module) / kConst (owned).
  Tensor value;
  /// Root slot id when this slot is a zero-cost reshape view of another
  /// (same storage, different shape); -1 for a root slot.
  int32_t alias_of = -1;
  /// Float offset of a root kTemp slot inside the plan's arena reservation
  /// (filled by the workspace-planning pass); -1 until assigned.
  int64_t arena_offset = -1;
  /// Liveness at LEVEL granularity (see Instr::level): [def, last_use].
  /// The arena packer keeps only overlapping level intervals disjoint, so
  /// the executor must run instructions in level order for a temp's bytes
  /// to stay live until its last use.
  int32_t def_level = 0;
  int32_t last_use_level = 0;
};

struct Instr {
  OpCode op = OpCode::kCount;
  Act act = Act::kNone;  // fused activation (kConv2d, kFusedAddAct)
  float fval = 0.f;      // scalar operand (kAddScalar, kMulScalar, kAttention)
  std::vector<int32_t> in;
  int32_t out = -1;
  std::vector<int64_t> ivals;  // op-specific attrs, see OpCode comments
  /// Module scope path recorded by the tracer ("layers.0/unet"), for
  /// debugging dumps and per-instruction profiling.
  std::string label;
  /// Dependency depth: 1 + max(level of producing instrs of inputs), with
  /// plan inputs/params/consts at level 0. Levels fix the execution order
  /// and the granularity of slot liveness.
  int32_t level = 0;
};

struct Plan {
  std::vector<Slot> slots;
  std::vector<Instr> instrs;
  int32_t input_slot = -1;
  int32_t output_slot = -1;
  Shape in_shape;
  Shape out_shape;
  /// Instruction indices grouped by level, in level order (compiler-built).
  /// The executor runs them in exactly this order.
  std::vector<std::vector<int32_t>> levels;
  /// Total floats of the single per-plan arena reservation.
  int64_t arena_floats = 0;
  // Compile statistics (reported by benches / asserted by tests).
  int64_t fused_ops = 0;
  int64_t folded_ops = 0;
};

const char* op_name(OpCode op);
const char* act_name(Act a);

/// Multi-line human-readable dump (debugging / golden plan inspection).
std::string to_string(const Plan& p);

}  // namespace plan
}  // namespace saufno
