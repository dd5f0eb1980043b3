#include "plan/executor.h"

#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "autograd/conv_ops.h"
#include "autograd/spectral3d_ops.h"
#include "autograd/spectral_ops.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/kernel_profile.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace plan {

namespace {

constexpr std::size_t kNumOps = static_cast<std::size_t>(OpCode::kCount);

std::array<KernelFn, kNumOps>& kernel_table() {
  static std::array<KernelFn, kNumOps> table{};
  return table;
}

/// Per-opcode latency histograms ("plan.instr.<op>_us"), materialized once.
obs::Histogram& instr_hist(OpCode op) {
  static std::array<obs::Histogram*, kNumOps>* hists = [] {
    auto* h = new std::array<obs::Histogram*, kNumOps>{};
    for (std::size_t i = 0; i < kNumOps; ++i) {
      (*h)[i] = &obs::histogram(std::string("plan.instr.") +
                                op_name(static_cast<OpCode>(i)) + "_us");
    }
    return h;
  }();
  return *(*hists)[static_cast<std::size_t>(op)];
}

// Registers `exec_<OP>` as the kernel for OpCode::k<OP> at static-init time
// (same registration-table idiom as the FFT driver table): the macro expands
// to a declaration, a self-registering initializer, and the definition
// header, so adding an opcode is one block in this file.
#define SAUFNO_PLAN_KERNEL(OP)                                \
  void exec_##OP(ExecArgs& args);                             \
  [[maybe_unused]] const bool registered_##OP =               \
      (register_kernel(OpCode::k##OP, &exec_##OP), true);     \
  void exec_##OP(ExecArgs& args)

SAUFNO_PLAN_KERNEL(Add) { add_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(Sub) { sub_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(Mul) { mul_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(Div) { div_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(AddScalar) {
  add_scalar_into(args.in(0), args.instr.fval, args.out);
}
SAUFNO_PLAN_KERNEL(MulScalar) {
  mul_scalar_into(args.in(0), args.instr.fval, args.out);
}
SAUFNO_PLAN_KERNEL(Relu) { relu_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Gelu) { gelu_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Tanh) { tanh_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Sigmoid) { sigmoid_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Exp) { exp_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Log) { log_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Sqrt) { sqrt_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Square) {
  // The interpreter computes square as x*x; same expression, same bits.
  mul_into(args.in(0), args.in(0), args.out);
}
SAUFNO_PLAN_KERNEL(Abs) { abs_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(Reshape) {
  // Compiled plans turn reshapes into slot aliases; this shim only runs for
  // constant folding over an uncompiled trace. Plain element copy.
  std::memcpy(args.out.data(), args.in(0).data(),
              static_cast<std::size_t>(args.in(0).numel()) * sizeof(float));
}
SAUFNO_PLAN_KERNEL(Permute) { permute_into(args.in(0), args.instr.ivals, args.out); }
SAUFNO_PLAN_KERNEL(Slice) {
  slice_into(args.in(0), args.instr.ivals[0], args.instr.ivals[1],
             args.instr.ivals[2], args.out);
}
SAUFNO_PLAN_KERNEL(Cat) {
  std::vector<Tensor> parts;
  parts.reserve(args.instr.in.size());
  for (std::size_t i = 0; i < args.instr.in.size(); ++i) {
    parts.push_back(args.in(i));  // O(1) storage shares
  }
  cat_into(parts, args.instr.ivals[0], args.out);
}
SAUFNO_PLAN_KERNEL(Pad2d) {
  pad2d_into(args.in(0), args.instr.ivals[0], args.instr.ivals[1],
             args.instr.ivals[2], args.instr.ivals[3], args.out);
}
SAUFNO_PLAN_KERNEL(Matmul) { matmul_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(Bmm) { bmm_into(args.in(0), args.in(1), args.out); }
SAUFNO_PLAN_KERNEL(Softmax) { softmax_lastdim_into(args.in(0), args.out); }
SAUFNO_PLAN_KERNEL(SumDim) {
  sum_dim_into(args.in(0), args.instr.ivals[0], args.instr.ivals[1] != 0,
               args.out);
}
SAUFNO_PLAN_KERNEL(ResizeBilinear) {
  resize_bilinear_into(args.in(0), args.instr.ivals[0], args.instr.ivals[1],
                       args.out);
}
SAUFNO_PLAN_KERNEL(Conv2d) {
  const bool has_bias = args.instr.ivals[2] != 0;
  ops::fwd::conv2d_into(args.in(0), args.in(1),
                        has_bias ? &args.in(2) : nullptr, args.instr.ivals[0],
                        args.instr.ivals[1],
                        static_cast<int>(args.instr.act), args.out);
}
SAUFNO_PLAN_KERNEL(MaxPool2d) {
  ops::fwd::maxpool2d_into(args.in(0), args.instr.ivals[0],
                           /*argmax=*/nullptr, args.out);
}
SAUFNO_PLAN_KERNEL(SpectralConv2d) {
  ops::fwd::spectral_conv2d_into(args.in(0), args.in(1), args.instr.ivals[0],
                                 args.instr.ivals[1], args.instr.ivals[2],
                                 args.out);
}
SAUFNO_PLAN_KERNEL(SpectralConv3d) {
  ops::fwd::spectral_conv3d_into(args.in(0), args.in(1), args.instr.ivals[0],
                                 args.instr.ivals[1], args.instr.ivals[2],
                                 args.instr.ivals[3], args.out);
}
SAUFNO_PLAN_KERNEL(Attention) {
  attention_into(args.in(0), args.in(1), args.in(2), args.instr.fval,
                 args.out);
}
SAUFNO_PLAN_KERNEL(FusedAddAct) {
  const bool three = args.instr.in.size() == 3;
  fused_add_act_into(args.in(0), args.in(1), three ? &args.in(2) : nullptr,
                     static_cast<int>(args.instr.act), args.out);
}

#undef SAUFNO_PLAN_KERNEL

int32_t root_of(const Plan& p, int32_t s) {
  while (p.slots[static_cast<std::size_t>(s)].alias_of >= 0) {
    s = p.slots[static_cast<std::size_t>(s)].alias_of;
  }
  return s;
}

void exec_instr(const Plan& p, std::vector<Tensor>& slots, int32_t idx) {
  const Instr& ins = p.instrs[static_cast<std::size_t>(idx)];
  KernelFn fn = kernel_table()[static_cast<std::size_t>(ins.op)];
  SAUFNO_CHECK(fn != nullptr,
               std::string("plan: no kernel registered for ") +
                   op_name(ins.op));
  Tensor& out = slots[static_cast<std::size_t>(ins.out)];
  obs::KernelTimer timer(instr_hist(ins.op), op_name(ins.op));
  ExecArgs args{ins, slots, out};
  fn(args);
}

}  // namespace

void register_kernel(OpCode op, KernelFn fn) {
  kernel_table()[static_cast<std::size_t>(op)] = fn;
}

Tensor eval_single(const Instr& instr, const std::vector<Tensor>& slot_values,
                   const Shape& out_shape) {
  KernelFn fn = kernel_table()[static_cast<std::size_t>(instr.op)];
  SAUFNO_CHECK(fn != nullptr,
               std::string("plan: no kernel registered for ") +
                   op_name(instr.op));
  Tensor out(out_shape);
  ExecArgs args{instr, slot_values, out};
  fn(args);
  return out;
}

PlanExecutor::PlanExecutor(Plan plan)
    : plan_(std::make_shared<const Plan>(std::move(plan))) {
  for (std::size_t i = 0; i < plan_->slots.size(); ++i) {
    if (plan_->slots[i].alias_of >= 0 &&
        root_of(*plan_, static_cast<int32_t>(i)) == plan_->input_slot) {
      input_aliases_.push_back(static_cast<int32_t>(i));
    }
  }
}

std::unique_ptr<PlanExecutor::BoundBuffer> PlanExecutor::acquire_buffer() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (!pool_.empty()) {
      auto b = std::move(pool_.back());
      pool_.pop_back();
      return b;
    }
  }
  const Plan& p = *plan_;
  auto b = std::make_unique<BoundBuffer>();
  b->arena = runtime::Reservation(static_cast<std::size_t>(p.arena_floats) *
                                  sizeof(float));
  b->slots.resize(p.slots.size());
  float* base = b->arena.floats();
  // Roots first: params/consts share their captured storage, temps bind
  // into the packed arena reservation at their liveness-planned offsets.
  for (std::size_t i = 0; i < p.slots.size(); ++i) {
    const Slot& s = p.slots[i];
    if (s.alias_of >= 0) continue;
    if (s.kind == SlotKind::kParam || s.kind == SlotKind::kConst) {
      b->slots[i] = s.value;
    } else if (s.kind == SlotKind::kTemp && s.arena_offset >= 0) {
      b->slots[i] = Tensor::wrap_external(base + s.arena_offset, s.shape);
    }
    // kInput (and dead temps) stay default-constructed; the input root and
    // its aliases are rebound at the top of every run().
  }
  for (std::size_t i = 0; i < p.slots.size(); ++i) {
    const Slot& s = p.slots[i];
    if (s.alias_of < 0) continue;
    const int32_t root = root_of(p, static_cast<int32_t>(i));
    if (root == p.input_slot) continue;
    const Tensor& rt = b->slots[static_cast<std::size_t>(root)];
    if (rt.defined()) b->slots[i] = rt.reshape(s.shape);
  }
  return b;
}

void PlanExecutor::release_buffer(std::unique_ptr<BoundBuffer> b) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  pool_.push_back(std::move(b));
}

Tensor PlanExecutor::run(const Tensor& input) {
  SAUFNO_FAULT_POINT("plan");
  const Plan& p = *plan_;
  SAUFNO_CHECK(input.shape() == p.in_shape,
               "plan input shape mismatch: got " + shape_str(input.shape()) +
                   ", plan compiled for " + shape_str(p.in_shape));
  static obs::Counter& runs = obs::counter("plan.runs");
  runs.add();

  auto b = acquire_buffer();
  b->slots[static_cast<std::size_t>(p.input_slot)] = input;  // O(1) share
  for (int32_t s : input_aliases_) {
    b->slots[static_cast<std::size_t>(s)] =
        input.reshape(p.slots[static_cast<std::size_t>(s)].shape);
  }

  // Level order, not trace order: the arena packer keeps temp slots
  // disjoint only across overlapping level intervals.
  for (const auto& level : p.levels) {
    for (const int32_t idx : level) exec_instr(p, b->slots, idx);
  }

  Tensor result =
      b->slots[static_cast<std::size_t>(p.output_slot)].clone();
  // Drop references into the caller's input storage before pooling the
  // buffer (holding them would pin the batch tensor until the next run).
  b->slots[static_cast<std::size_t>(p.input_slot)] = Tensor();
  for (int32_t s : input_aliases_) {
    b->slots[static_cast<std::size_t>(s)] = Tensor();
  }
  release_buffer(std::move(b));
  return result;
}

}  // namespace plan
}  // namespace saufno
