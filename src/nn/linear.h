#pragma once

#include "nn/init.h"
#include "nn/module.h"

namespace saufno {
namespace nn {

/// Fully-connected layer y = x W^T + b on the last dimension.
/// Input [..., in_features] -> output [..., out_features]; leading dims are
/// flattened through a reshape. The MLPs (DeepOHeat branch/trunk nets) use
/// it; per-pixel channel maps use PointwiseConv.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  Var forward(const Var& x) override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

 private:
  int64_t in_, out_;
  Var weight_;  // [in, out] so forward is a plain matmul
  Var bias_;    // [out] (undefined when bias=false)
};

/// 1x1 convolution: [B, Cin, H, W] -> [B, Cout, H, W], one channels-first
/// gemm per batch item through ops::conv2d, with the bias and an optional
/// activation in its epilogue. This is the W "linear bias term" of
/// Eq. (6)/(8), the lifting/projection maps and the Q/K/V embeddings of the
/// attention block; using 1x1 kernels everywhere outside the U-Net is what
/// preserves mesh invariance.
class PointwiseConv : public Module {
 public:
  PointwiseConv(int64_t cin, int64_t cout, Rng& rng, bool bias = true);
  Var forward(const Var& x) override { return forward(x, Act::kNone); }
  /// act(conv(x)): without a tape the activation runs in the conv's
  /// epilogue, bit-identical to a separate activation op.
  Var forward(const Var& x, Act act);

 private:
  int64_t cin_, cout_;
  Var weight_;  // [cin, cout], viewed as [cout, cin, 1, 1] by forward
  Var bias_;    // [cout]
};

}  // namespace nn
}  // namespace saufno
