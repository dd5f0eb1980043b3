#include "plan/ir.h"

#include <sstream>

namespace saufno {
namespace plan {

const char* op_name(OpCode op) {
  switch (op) {
    case OpCode::kAdd: return "add";
    case OpCode::kSub: return "sub";
    case OpCode::kMul: return "mul";
    case OpCode::kDiv: return "div";
    case OpCode::kAddScalar: return "add_scalar";
    case OpCode::kMulScalar: return "mul_scalar";
    case OpCode::kRelu: return "relu";
    case OpCode::kGelu: return "gelu";
    case OpCode::kTanh: return "tanh";
    case OpCode::kSigmoid: return "sigmoid";
    case OpCode::kExp: return "exp";
    case OpCode::kLog: return "log";
    case OpCode::kSqrt: return "sqrt";
    case OpCode::kSquare: return "square";
    case OpCode::kAbs: return "abs";
    case OpCode::kReshape: return "reshape";
    case OpCode::kPermute: return "permute";
    case OpCode::kSlice: return "slice";
    case OpCode::kCat: return "cat";
    case OpCode::kPad2d: return "pad2d";
    case OpCode::kMatmul: return "matmul";
    case OpCode::kBmm: return "bmm";
    case OpCode::kSoftmax: return "softmax";
    case OpCode::kSumDim: return "sum_dim";
    case OpCode::kResizeBilinear: return "resize_bilinear";
    case OpCode::kConv2d: return "conv2d";
    case OpCode::kMaxPool2d: return "maxpool2d";
    case OpCode::kSpectralConv2d: return "spectral_conv2d";
    case OpCode::kSpectralConv3d: return "spectral_conv3d";
    case OpCode::kAttention: return "attention";
    case OpCode::kFusedAddAct: return "fused_add_act";
    case OpCode::kScaledSoftmax: return "scaled_softmax";
    case OpCode::kCount: break;
  }
  return "?";
}

const char* act_name(Act a) {
  switch (a) {
    case Act::kNone: return "none";
    case Act::kRelu: return "relu";
    case Act::kGelu: return "gelu";
  }
  return "?";
}

std::string to_string(const Plan& p) {
  std::ostringstream os;
  os << "plan " << shape_str(p.in_shape) << " -> " << shape_str(p.out_shape)
     << ": " << p.instrs.size() << " instrs, " << p.slots.size()
     << " slots, " << p.levels.size() << " levels, arena "
     << p.arena_floats * sizeof(float) / 1024 << " KiB, fused "
     << p.fused_ops << ", folded " << p.folded_ops << "\n";
  auto slot_str = [&](int32_t s) {
    const Slot& sl = p.slots[static_cast<std::size_t>(s)];
    std::ostringstream ss;
    ss << "%" << s;
    if (sl.alias_of >= 0) ss << "->%" << sl.alias_of;
    ss << shape_str(sl.shape);
    return ss.str();
  };
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    const Instr& ins = p.instrs[i];
    os << "  [L" << ins.level << "] " << slot_str(ins.out) << " = "
       << op_name(ins.op);
    if (ins.act != Act::kNone) os << "+" << act_name(ins.act);
    os << "(";
    for (std::size_t k = 0; k < ins.in.size(); ++k) {
      if (k) os << ", ";
      os << slot_str(ins.in[k]);
    }
    os << ")";
    if (!ins.ivals.empty()) {
      os << " ivals=[";
      for (std::size_t k = 0; k < ins.ivals.size(); ++k) {
        if (k) os << ",";
        os << ins.ivals[k];
      }
      os << "]";
    }
    if (!ins.label.empty()) os << "  # " << ins.label;
    os << "\n";
  }
  return os.str();
}

}  // namespace plan
}  // namespace saufno
