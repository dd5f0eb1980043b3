#pragma once

#include <cstdint>
#include <functional>

#include "tensor/tensor.h"

namespace saufno {

// ---------------------------------------------------------------------------
// Raw (non-differentiable) tensor ops. The autograd layer wraps these with
// backward rules; keeping the kernels separate lets the thermal solvers and
// the data pipeline use them without dragging the tape in.
// ---------------------------------------------------------------------------

/// Numpy-style broadcast of two shapes; throws if incompatible.
Shape broadcast_shape(const Shape& a, const Shape& b);

// Elementwise binary ops with broadcasting.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// Scalar variants.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// Elementwise unary ops.
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
/// Exact GELU: x * Phi(x) with Phi the standard normal CDF (via erf).
Tensor gelu(const Tensor& a);
/// d/dx of exact GELU (needed by the autograd rule).
Tensor gelu_grad(const Tensor& a);
/// Apply an arbitrary scalar function (test/tooling convenience).
Tensor map(const Tensor& a, const std::function<float(float)>& f);

// Reductions.
float sum_all(const Tensor& a);
float max_all(const Tensor& a);
float min_all(const Tensor& a);
float mean_all(const Tensor& a);
/// Sum over the given dimension; optionally keep it (size 1).
Tensor sum_dim(const Tensor& a, int64_t dim, bool keepdim);
/// Reduce `a` (by summation) to `target` shape — the broadcast adjoint.
Tensor reduce_to(const Tensor& a, const Shape& target);

// Layout ops (all copy).
Tensor transpose2d(const Tensor& a);
/// General permutation of dimensions.
Tensor permute(const Tensor& a, const std::vector<int64_t>& perm);
/// Narrow along `dim`: elements [start, start+length).
Tensor slice(const Tensor& a, int64_t dim, int64_t start, int64_t length);
/// Concatenate along `dim`.
Tensor cat(const std::vector<Tensor>& ts, int64_t dim);
/// Zero-pad the last two dims (left/right/top/bottom).
Tensor pad2d(const Tensor& a, int64_t top, int64_t bottom, int64_t left,
             int64_t right);

// Linear algebra.
/// 2-D matmul [M,K] x [K,N] -> [M,N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// Batched matmul [B,M,K] x [B,K,N] -> [B,M,N]; B may broadcast (1 vs B).
Tensor bmm(const Tensor& a, const Tensor& b);

/// Numerically-stable softmax along the last dimension.
Tensor softmax_lastdim(const Tensor& a);

/// Bilinear resize of the last two dims of a [..., H, W] tensor to (oh, ow)
/// using align_corners=true sampling (exact at the grid corners, which is
/// what the U-FNO decoder and GAR's fidelity lifting need).
Tensor resize_bilinear(const Tensor& a, int64_t oh, int64_t ow);
/// Adjoint of resize_bilinear (scatter of output-gradient to input grid).
Tensor resize_bilinear_adjoint(const Tensor& grad_out, int64_t ih, int64_t iw);

// ---------------------------------------------------------------------------
// Out-parameter variants for preallocated destinations. The allocating forms
// above are thin wrappers over these, so the plan executor (src/plan/),
// which writes into arena-reservation slots, runs the IDENTICAL loop as the
// interpreter — the foundation of the bit-identical plan/interpreter
// contract. `out` must already have the exact result shape; contents may be
// uninitialized (pad2d_into zero-fills the destination itself).
// ---------------------------------------------------------------------------

void add_into(const Tensor& a, const Tensor& b, Tensor& out);
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);
void mul_into(const Tensor& a, const Tensor& b, Tensor& out);
void div_into(const Tensor& a, const Tensor& b, Tensor& out);
void add_scalar_into(const Tensor& a, float s, Tensor& out);
void mul_scalar_into(const Tensor& a, float s, Tensor& out);
void relu_into(const Tensor& a, Tensor& out);
void gelu_into(const Tensor& a, Tensor& out);
void tanh_into(const Tensor& a, Tensor& out);
void sigmoid_into(const Tensor& a, Tensor& out);
void exp_into(const Tensor& a, Tensor& out);
void log_into(const Tensor& a, Tensor& out);
void sqrt_into(const Tensor& a, Tensor& out);
void abs_into(const Tensor& a, Tensor& out);
void permute_into(const Tensor& a, const std::vector<int64_t>& perm,
                  Tensor& out);
void slice_into(const Tensor& a, int64_t dim, int64_t start, int64_t length,
                Tensor& out);
void cat_into(const std::vector<Tensor>& ts, int64_t dim, Tensor& out);
void pad2d_into(const Tensor& a, int64_t top, int64_t bottom, int64_t left,
                int64_t right, Tensor& out);
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
void bmm_into(const Tensor& a, const Tensor& b, Tensor& out);
void softmax_lastdim_into(const Tensor& a, Tensor& out);
void sum_dim_into(const Tensor& a, int64_t dim, bool keepdim, Tensor& out);
void resize_bilinear_into(const Tensor& a, int64_t oh, int64_t ow,
                          Tensor& out);

/// Activation fused into a producing kernel's epilogue (conv2d, add). One
/// enum serves the fused kernels, the autograd ops layer and the plan IR.
enum class Act : std::uint8_t { kNone, kRelu, kGelu };

/// act(v) with the same expression as the unary kernel above (relu_into,
/// gelu_into), so a fused activation matches a separate pass bit for bit.
float act_apply(Act act, float v);

/// out[i] = act_apply(Act::kGelu, in[i]) over n floats, bit for bit, eight
/// lanes at a time on the AVX2 level. `in` may equal `out`. Every GELU
/// kernel (gelu_into, bias_act_row, fused_add_act_into) sweeps through it.
void gelu_row(const float* in, float* out, int64_t n);

/// row[i] = act_apply(act, row[i] + *bias) over n floats, or
/// act_apply(act, row[i]) when bias is null: a bias add then the
/// activation, bit for bit, with the switch on act hoisted out of the loop.
void bias_act_row(float* row, int64_t n, const float* bias, Act act);

/// Fused out = act(a + b) (c == nullptr) or out = act((a + b) + c), all
/// operands and out of one shape (no broadcasting; throws otherwise). Per
/// element the arithmetic matches add-then-activation exactly (same
/// expressions, same order), so fusing never changes bits.
void fused_add_act_into(const Tensor& a, const Tensor& b, const Tensor* c,
                        Act act, Tensor& out);
/// Fused out = softmax_lastdim(a * scale): the scaled row is materialized
/// into `out` first and the softmax then runs the identical max/exp/sum/
/// scale sequence as softmax_lastdim_into — bit-identical to mul_scalar
/// followed by softmax.
void scaled_softmax_lastdim_into(const Tensor& a, float scale, Tensor& out);

/// Fused self-attention:
/// out[b] = v[b] * softmax_lastdim(q[b]ᵀ k[b] * scale)^T for q [B,d,N] and
/// k [B,d,N] (both as the 1x1 projections write them), v [B,C,N], out
/// [B,C,N]. Runs over fixed 64-query blocks, so no [N,N] tensor exists:
/// each block's scores are computed transposed, Kᵀ Q, one 16-query panel
/// at a time straight into the packed Pᵀ layout of the mix product, and
/// the scaled softmax runs down the panel columns with the row softmax's
/// own operations in its order. Bit-identical to bmm(permute(q), k) ->
/// scaled_softmax_lastdim -> permute -> bmm for every SAUFNO_NUM_THREADS,
/// NaN included, while at most one NaN payload is in play per batch item.
/// When two NaNs with different payloads meet in one add or multiply, the
/// compiler's operand order decides which survives: a NaN key (0x7fc00000)
/// beside an inf key (whose inf - inf gives 0xffc00000) in one item may
/// come out with either payload here and in the chain.
/// PlanKernels.AttentionBitIdenticalToComposition keeps its infinities out
/// of the NaN item for this reason.
void attention_into(const Tensor& q, const Tensor& k, const Tensor& v,
                    float scale, Tensor& out);

}  // namespace saufno
