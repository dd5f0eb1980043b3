#include "baselines/gar.h"

#include <memory>

#include "common/logging.h"

namespace saufno {
namespace baselines {

Gar::Gar(const Config& cfg, Rng& rng) : cfg_(cfg) {
  core::SauFno::Config fc;
  fc.in_channels = cfg.in_channels;
  fc.out_channels = cfg.out_channels;
  fc.width = cfg.coarse_width;
  fc.modes1 = cfg.coarse_modes;
  fc.modes2 = cfg.coarse_modes;
  fc.n_fourier = cfg.coarse_layers;
  fc.n_ufourier = 0;
  fc.attention = core::AttentionPlacement::kNone;
  coarse_ = register_module("coarse",
                            std::make_shared<core::SauFno>(fc, rng));
  residual_ = register_module(
      "residual",
      std::make_shared<nn::PointwiseConv>(cfg.in_channels, cfg.out_channels,
                                          rng));
  alpha_ = register_parameter(
      "alpha", Var(Tensor::ones({cfg.out_channels}), /*requires_grad=*/true));
}

Var Gar::forward(const Var& x) {
  SAUFNO_CHECK(x.value().dim() == 4, "Gar input must be [B,C,H,W]");
  const int64_t H = x.size(2), W = x.size(3);
  // Coarse stage: operate at half resolution (floor, min 4).
  const int64_t ch = std::max<int64_t>(4, H / 2);
  const int64_t cw = std::max<int64_t>(4, W / 2);
  Var y_lo = coarse_->forward(ops::resize_bilinear(x, ch, cw));
  Var lifted = ops::resize_bilinear(y_lo, H, W);
  Var a = ops::reshape(alpha_, {1, cfg_.out_channels, 1, 1});
  return ops::add(ops::mul(lifted, a), residual_->forward(x));
}

}  // namespace baselines
}  // namespace saufno
