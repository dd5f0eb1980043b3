#pragma once

#include <map>
#include <string>
#include <vector>

#include "plan/ir.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Cost of one plan instruction as measured by a replay.
struct InstrCost {
  std::string op;     // plan::op_name
  std::string group;  // layer_group(Instr::label)
  double ms = 0.0;
  /// Computed from the static slot shapes, not measured.
  double flops = 0.0;
  double bytes = 0.0;  // input + output tensor bytes
};

/// Per-instruction replay of a compiled plan: every instruction runs once
/// per repetition through plan::eval_single, in level order, against slot
/// values bound the way the executor binds them (params and consts share
/// the captured storage, alias slots are reshape views of their roots).
/// `ms` is the median over repetitions, net of the result allocation
/// eval_single makes and the executor does not (see replay_plan).
struct Ledger {
  std::vector<InstrCost> instrs;
  double total_ms = 0.0;
  /// The replay's output, for checking it against PlanExecutor::run.
  saufno::Tensor output;

  /// Sum of `ms` per key (layer group or opcode name).
  std::map<std::string, double> ms_by_group() const;
  std::map<std::string, double> ms_by_op() const;
  double flops_of_op(const std::string& op) const;
  double bytes_of_op(const std::string& op) const;
};

/// Layer of an instruction label: "attention", "spectral", "unet" or
/// "pointwise" (everything else: lifting, projection, skip adds).
std::string layer_group(const std::string& label);

/// Replay `p` on `input` (shape p.in_shape) `reps` timed times, after one
/// untimed pass.
Ledger replay_plan(const saufno::plan::Plan& p, const saufno::Tensor& input,
                   int reps);

/// Floating-point operations and tensor bytes of one instruction, from the
/// static shapes of its slots. Flops are counted only for the arithmetic ops
/// the benchmark reports (bmm, matmul, conv2d, spectral_conv2d,
/// scaled_softmax, resize_bilinear, maxpool2d); every other op reads 0.
double instr_flops(const saufno::plan::Plan& p, const saufno::plan::Instr& in);
double instr_bytes(const saufno::plan::Plan& p, const saufno::plan::Instr& in);

/// Largest single kTemp slot of the plan, in bytes.
double largest_temp_bytes(const saufno::plan::Plan& p);

/// Median milliseconds of fft::rfft_2d and fft::irfft_2d summed over the
/// plan's spectral_conv2d instructions, called directly at each one's
/// [B*C, H, W, kept] shape.
struct FftCost {
  double rfft_ms = 0.0;
  double irfft_ms = 0.0;
};
FftCost time_plan_ffts(const saufno::plan::Plan& p, int reps);

}  // namespace perfbench
