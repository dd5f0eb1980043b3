#pragma once

#include "autograd/variable.h"

namespace saufno {
namespace ops {

// ---------------------------------------------------------------------------
// Differentiable ops over Var. Each function computes the value with the raw
// tensor kernels and, when any input requires grad, records a Node whose
// backward rule accumulates input gradients. Broadcasting follows numpy
// semantics; the backward reduces gradients back to the input shapes.
// ---------------------------------------------------------------------------

// Elementwise arithmetic (broadcasting).
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// Elementwise nonlinearities.
Var relu(const Var& a);
Var gelu(const Var& a);
Var tanh(const Var& a);
Var sigmoid(const Var& a);
Var exp(const Var& a);
Var log(const Var& a);
Var sqrt(const Var& a);
Var square(const Var& a);
Var abs(const Var& a);

// Shape ops.
Var reshape(const Var& a, Shape new_shape);
Var permute(const Var& a, const std::vector<int64_t>& perm);
Var slice(const Var& a, int64_t dim, int64_t start, int64_t length);
Var cat(const std::vector<Var>& vs, int64_t dim);
Var pad2d(const Var& a, int64_t top, int64_t bottom, int64_t left,
          int64_t right);

// Linear algebra.
Var matmul(const Var& a, const Var& b);
Var bmm(const Var& a, const Var& b);

// Reductions.
Var sum_all(const Var& a);   // -> shape [1]
Var mean_all(const Var& a);  // -> shape [1]
Var sum_dim(const Var& a, int64_t dim, bool keepdim);

// Softmax along the last dimension (fused, numerically stable).
Var softmax_lastdim(const Var& a);

/// Fused attention: v [B,C,N] times softmax_lastdim(q [B,N,d] k [B,d,N] *
/// scale) transposed -> [B,C,N]. Forward values are bit-identical to
/// bmm(v, permute(softmax_lastdim(mul_scalar(bmm(q, k), scale)), {0,2,1}))
/// without materializing the [B,N,N] scores; the backward recomputes them.
Var attention(const Var& q, const Var& k, const Var& v, float scale);

// Bilinear resize of the trailing two dims (align_corners=true).
Var resize_bilinear(const Var& a, int64_t oh, int64_t ow);

// Losses.
/// Mean squared error over all elements — Eq. (12) of the paper.
Var mse_loss(const Var& pred, const Var& target);
/// Mean absolute error over all elements.
Var l1_loss(const Var& pred, const Var& target);
/// Relative L2 loss ||pred - target|| / ||target|| — the loss the original
/// FNO line of work trains with; exposed so users can swap it in for the
/// paper's plain MSE (Trainer uses MSE to match the paper).
Var relative_l2_loss(const Var& pred, const Var& target);

}  // namespace ops

// Operator sugar for the common arithmetic cases.
inline Var operator+(const Var& a, const Var& b) { return ops::add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return ops::sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return ops::mul(a, b); }
inline Var operator*(const Var& a, float s) { return ops::mul_scalar(a, s); }
inline Var operator*(float s, const Var& a) { return ops::mul_scalar(a, s); }

}  // namespace saufno
