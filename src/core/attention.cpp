#include "core/attention.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "plan/trace.h"

namespace saufno {
namespace core {

SelfAttentionBlock::SelfAttentionBlock(int64_t channels, int64_t d, Rng& rng)
    : channels_(channels), d_(d) {
  wq_ = register_module("wq", std::make_shared<nn::PointwiseConv>(
                                  channels, d, rng, /*bias=*/false));
  wk_ = register_module("wk", std::make_shared<nn::PointwiseConv>(
                                  channels, d, rng, /*bias=*/false));
  wh_ = register_module("wh", std::make_shared<nn::PointwiseConv>(
                                  channels, channels, rng, /*bias=*/false));
  wo_ = register_module("wo",
                        std::make_shared<nn::PointwiseConv>(channels, channels,
                                                            rng));
}

Var SelfAttentionBlock::forward(const Var& x) {
  plan::TraceScope scope("attention");
  SAUFNO_CHECK(x.value().dim() == 4, "attention input must be [B,C,H,W]");
  const int64_t B = x.size(0), H = x.size(2), W = x.size(3);
  const int64_t N = H * W;

  Var q = wq_->forward(x);  // [B, d, H, W]
  Var k = wk_->forward(x);  // [B, d, H, W]
  Var v = wh_->forward(x);  // [B, C, H, W] — the channel-attention map A_c

  Var qn = ops::permute(ops::reshape(q, {B, d_, N}), {0, 2, 1});  // [B, N, d]
  Var kn = ops::reshape(k, {B, d_, N});                           // [B, d, N]
  Var vn = ops::reshape(v, {B, channels_, N});                    // [B, C, N]
  // s_ij = <Q_i, K_j> / sqrt(d) — scaling keeps the softmax out of
  // saturation, standard since Vaswani et al. [30] — then
  // V'_i = sum_j A_s[i,j] A_c[:,j], i.e. V' = A_c * A_s^T ([B, C, N]).
  // The fused op runs in query-row blocks, so the [B, N, N] A_s never
  // exists as a tensor.
  Var out = ops::attention(qn, kn, vn,
                           1.f / std::sqrt(static_cast<float>(d_)));
  out = ops::reshape(out, {B, channels_, H, W});
  // Residual connection so the block can no-op early in training.
  return ops::add(x, wo_->forward(out));
}

}  // namespace core
}  // namespace saufno
