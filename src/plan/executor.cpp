#include "plan/executor.h"

#include <cstring>
#include <string>
#include <utility>

#include "autograd/conv_ops.h"
#include "autograd/spectral3d_ops.h"
#include "autograd/spectral_ops.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace plan {

namespace {

/// Runs `ins` on the bound slot tensors into `out`. One case per opcode and
/// no default, so -Wswitch rejects an opcode without a kernel at build time.
void run_kernel(const Instr& ins, const std::vector<Tensor>& slots,
                Tensor& out) {
  const auto in = [&](std::size_t i) -> const Tensor& {
    return slots[static_cast<std::size_t>(ins.in[i])];
  };
  const std::vector<int64_t>& iv = ins.ivals;
  switch (ins.op) {
    case OpCode::kAdd:
      return add_into(in(0), in(1), out);
    case OpCode::kSub:
      return sub_into(in(0), in(1), out);
    case OpCode::kMul:
      return mul_into(in(0), in(1), out);
    case OpCode::kDiv:
      return div_into(in(0), in(1), out);
    case OpCode::kAddScalar:
      return add_scalar_into(in(0), ins.fval, out);
    case OpCode::kMulScalar:
      return mul_scalar_into(in(0), ins.fval, out);
    case OpCode::kRelu:
      return relu_into(in(0), out);
    case OpCode::kGelu:
      return gelu_into(in(0), out);
    case OpCode::kTanh:
      return tanh_into(in(0), out);
    case OpCode::kSigmoid:
      return sigmoid_into(in(0), out);
    case OpCode::kExp:
      return exp_into(in(0), out);
    case OpCode::kLog:
      return log_into(in(0), out);
    case OpCode::kSqrt:
      return sqrt_into(in(0), out);
    case OpCode::kSquare:
      // The interpreter computes square as x*x; same expression, same bits.
      return mul_into(in(0), in(0), out);
    case OpCode::kAbs:
      return abs_into(in(0), out);
    case OpCode::kReshape:
      // Compiled plans turn reshapes into slot aliases; this case only runs
      // for constant folding over an uncompiled trace. Plain element copy.
      std::memcpy(out.data(), in(0).data(),
                  static_cast<std::size_t>(in(0).numel()) * sizeof(float));
      return;
    case OpCode::kPermute:
      return permute_into(in(0), iv, out);
    case OpCode::kSlice:
      return slice_into(in(0), iv[0], iv[1], iv[2], out);
    case OpCode::kCat: {
      std::vector<Tensor> parts;
      parts.reserve(ins.in.size());
      for (std::size_t i = 0; i < ins.in.size(); ++i) {
        parts.push_back(in(i));  // O(1) storage shares
      }
      return cat_into(parts, iv[0], out);
    }
    case OpCode::kPad2d:
      return pad2d_into(in(0), iv[0], iv[1], iv[2], iv[3], out);
    case OpCode::kMatmul:
      return matmul_into(in(0), in(1), out);
    case OpCode::kBmm:
      return bmm_into(in(0), in(1), out);
    case OpCode::kSoftmax:
      return softmax_lastdim_into(in(0), out);
    case OpCode::kSumDim:
      return sum_dim_into(in(0), iv[0], iv[1] != 0, out);
    case OpCode::kResizeBilinear:
      return resize_bilinear_into(in(0), iv[0], iv[1], out);
    case OpCode::kConv2d:
      return ops::fwd::conv2d_into(in(0), in(1), iv[2] != 0 ? &in(2) : nullptr,
                                   iv[0], iv[1], ins.act, out);
    case OpCode::kMaxPool2d:
      return ops::fwd::maxpool2d_into(in(0), iv[0], /*argmax=*/nullptr, out);
    case OpCode::kSpectralConv2d:
      return ops::fwd::spectral_conv2d_into(in(0), in(1), iv[0], iv[1], iv[2],
                                            out);
    case OpCode::kSpectralConv3d:
      return ops::fwd::spectral_conv3d_into(in(0), in(1), iv[0], iv[1], iv[2],
                                            iv[3], out);
    case OpCode::kAttention:
      return attention_into(in(0), in(1), in(2), ins.fval, out);
    case OpCode::kFusedAddAct:
      return fused_add_act_into(in(0), in(1),
                                ins.in.size() == 3 ? &in(2) : nullptr, ins.act,
                                out);
    case OpCode::kScaledSoftmax:
    case OpCode::kCount:
      break;
  }
  fail(std::string("plan: no kernel for ") + op_name(ins.op));
}

int32_t root_of(const Plan& p, int32_t s) {
  while (p.slots[static_cast<std::size_t>(s)].alias_of >= 0) {
    s = p.slots[static_cast<std::size_t>(s)].alias_of;
  }
  return s;
}

}  // namespace

Tensor eval_single(const Instr& instr, const std::vector<Tensor>& slot_values,
                   const Shape& out_shape) {
  Tensor out(out_shape);
  run_kernel(instr, slot_values, out);
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
    for (const int32_t idx : level) {
      const Instr& ins = p.instrs[static_cast<std::size_t>(idx)];
      run_kernel(ins, b->slots, b->slots[static_cast<std::size_t>(ins.out)]);
    }
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
