#pragma once

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace ops {

namespace fwd {

/// Raw conv2d forward (im2col + gemm per image) shared by the autograd op
/// and the plan executor — one implementation is what keeps compiled plans
/// bit-identical to the interpreter. `bias` may be null. `act` is applied
/// after the bias; the fused application matches a separate activation op
/// exactly because the per-element expressions are the same. `out` must be
/// [B,Cout,oh,ow] (contents ignored; fully overwritten).
void conv2d_into(const Tensor& x, const Tensor& w, const Tensor* bias,
                 int64_t stride, int64_t pad, Act act, Tensor& out);

/// Raw maxpool forward (kernel == stride). `argmax` receives the winning
/// flat in-plane index per pooled element (B*C*oh*ow entries) for the
/// backward scatter; pass null when gradients are not needed.
void maxpool2d_into(const Tensor& x, int64_t kernel, int64_t* argmax,
                    Tensor& out);

}  // namespace fwd

/// Differentiable 2-D convolution.
///   x: [B, Cin, H, W]
///   w: [Cout, Cin, kh, kw]
///   b: [Cout] (optional: pass an undefined Var to skip)
/// Implemented as im2col + gemm per image; the backward recomputes the
/// column buffer instead of caching it to keep activation memory flat
/// (important for the U-Net encoder at training time on a small machine).
/// `act` follows the conv: without a tape it runs in the conv's epilogue,
/// with one it is a separate activation op, so gradients are unchanged.
Var conv2d(const Var& x, const Var& w, const Var& b, int64_t stride,
           int64_t pad, Act act = Act::kNone);

/// Differentiable max pooling, kernel==stride (the U-Net uses 2x2).
/// x: [B, C, H, W] -> [B, C, H/k, W/k]; backward scatters to the argmax.
Var maxpool2d(const Var& x, int64_t kernel);

}  // namespace ops
}  // namespace saufno
