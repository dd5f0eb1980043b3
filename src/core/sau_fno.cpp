#include "core/sau_fno.h"

#include <memory>

#include "common/logging.h"
#include "plan/trace.h"

namespace saufno {
namespace core {

SauFno::Config SauFno::Config::chip_default(int64_t in_ch, int64_t out_ch) {
  Config c;
  c.in_channels = in_ch;
  c.out_channels = out_ch;
  return c;
}

SauFno::SauFno(const Config& cfg, Rng& rng) : cfg_(cfg) {
  SAUFNO_CHECK(cfg.n_fourier + cfg.n_ufourier >= 1,
               "SauFno needs at least one iterative layer");
  // Lifting P: two-layer pointwise MLP a(x) -> R^width.
  lift1_ = register_module(
      "lift1", std::make_shared<nn::PointwiseConv>(cfg.in_channels,
                                                   cfg.width, rng));
  lift2_ = register_module(
      "lift2",
      std::make_shared<nn::PointwiseConv>(cfg.width, cfg.width, rng));

  const int64_t total = cfg.n_fourier + cfg.n_ufourier;
  for (int64_t i = 0; i < total; ++i) {
    UFourierLayer::Config lc;
    lc.width = cfg.width;
    lc.modes1 = cfg.modes1;
    lc.modes2 = cfg.modes2;
    lc.with_unet = i >= cfg.n_fourier;  // plain Fourier first, then U-Fourier
    lc.unet_base = cfg.unet_base;
    lc.unet_depth = cfg.unet_depth;
    layers_.push_back(register_module(
        "layer" + std::to_string(i),
        std::make_shared<UFourierLayer>(lc, rng)));
    if (cfg.attention == AttentionPlacement::kAll) {
      attn_.push_back(register_module(
          "attn" + std::to_string(i),
          std::make_shared<SelfAttentionBlock>(cfg.width, cfg.attention_dim,
                                               rng)));
    }
  }
  if (cfg.attention == AttentionPlacement::kLast) {
    attn_.push_back(register_module(
        "attn_last", std::make_shared<SelfAttentionBlock>(
                         cfg.width, cfg.attention_dim, rng)));
  }

  // Projection Q: pointwise MLP back to the physical output space.
  proj1_ = register_module(
      "proj1",
      std::make_shared<nn::PointwiseConv>(cfg.width, 2 * cfg.width, rng));
  proj2_ = register_module(
      "proj2", std::make_shared<nn::PointwiseConv>(2 * cfg.width,
                                                   cfg.out_channels, rng));
}

Var SauFno::forward(const Var& x) {
  plan::TraceScope scope("sau_fno");
  SAUFNO_CHECK(x.value().dim() == 4, "SauFno input must be [B,C,H,W]");
  SAUFNO_CHECK(x.size(1) == cfg_.in_channels,
               "SauFno expects " + std::to_string(cfg_.in_channels) +
                   " input channels, got " + std::to_string(x.size(1)));
  Var v = lift2_->forward(lift1_->forward(x, Act::kGelu));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    v = layers_[i]->forward(v);
    if (cfg_.attention == AttentionPlacement::kAll) {
      v = attn_[i]->forward(v);
    }
  }
  // V_t -> V'_t: the attention refinement on the last feature map.
  if (cfg_.attention == AttentionPlacement::kLast) {
    v = attn_.back()->forward(v);
  }
  return proj2_->forward(proj1_->forward(v, Act::kGelu));
}

}  // namespace core
}  // namespace saufno
