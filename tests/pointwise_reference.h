#pragma once

// The channel map nn::PointwiseConv ran before it became a 1x1 conv:
// channels-last, one [B*H*W, Cin] x [Cin, Cout] matmul, a broadcast bias
// add, back to channels-first, then the activation, each a separate op.
// It is the bit-exact baseline for PointwiseConv::forward in test_nn,
// test_volumetric and bench_kernels, not part of the library. Built from
// ops, so under a tape it also gives the old chain's gradients.

#include <cstdint>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace saufno {

/// x [B, Cin, H, W], w [Cin, Cout], b [Cout] or undefined.
inline Var pointwise_reference(const Var& x, const Var& w, const Var& b,
                               Act act) {
  const int64_t B = x.size(0), cin = x.size(1), h = x.size(2),
                wd = x.size(3);
  const int64_t cout = w.size(1);
  Var t = ops::reshape(ops::permute(x, {0, 2, 3, 1}), {B * h * wd, cin});
  t = ops::matmul(t, w);
  if (b.defined()) t = ops::add(t, b);
  t = ops::permute(ops::reshape(t, {B, h, wd, cout}), {0, 3, 1, 2});
  return ops::apply_act(t, act);
}

}  // namespace saufno
