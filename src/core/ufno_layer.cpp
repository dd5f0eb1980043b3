#include "core/ufno_layer.h"

#include <memory>

#include "plan/trace.h"

namespace saufno {
namespace core {

UFourierLayer::UFourierLayer(const Config& cfg, Rng& rng) : cfg_(cfg) {
  k_ = register_module("spectral",
                       std::make_shared<SpectralConv2d>(
                           cfg.width, cfg.width, cfg.modes1, cfg.modes2, rng));
  if (cfg.with_unet) {
    u_ = register_module(
        "unet",
        std::make_shared<UNet>(cfg.width, cfg.unet_base, cfg.unet_depth, rng));
  }
  w_ = register_module(
      "linear", std::make_shared<nn::PointwiseConv>(cfg.width, cfg.width, rng));
}

Var UFourierLayer::forward(const Var& v) {
  plan::TraceScope scope(cfg_.with_unet ? "ufourier" : "fourier");
  // A fixed branch order (argument order is unspecified) keeps the traced
  // plan's instruction order the same under every compiler.
  Var wv = w_->forward(v);
  Var kv = k_->forward(v);
  Var uv = u_ != nullptr ? u_->forward(v) : Var();
  return ops::add_act(kv, wv, uv, Act::kGelu);
}

}  // namespace core
}  // namespace saufno
