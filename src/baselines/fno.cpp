#include "baselines/fno.h"

#include <memory>

namespace saufno {
namespace baselines {

Fno::Fno(const Config& cfg, Rng& rng) : cfg_(cfg) {
  lift1_ = register_module(
      "lift1",
      std::make_shared<nn::PointwiseConv>(cfg.in_channels, cfg.width, rng));
  lift2_ = register_module(
      "lift2",
      std::make_shared<nn::PointwiseConv>(cfg.width, cfg.width, rng));
  for (int64_t i = 0; i < cfg.n_layers; ++i) {
    core::UFourierLayer::Config lc;
    lc.width = cfg.width;
    lc.modes1 = cfg.modes1;
    lc.modes2 = cfg.modes2;
    lc.with_unet = false;  // Eq. (6): sigma(K v + W v) only
    layers_.push_back(register_module(
        "layer" + std::to_string(i),
        std::make_shared<core::UFourierLayer>(lc, rng)));
  }
  proj1_ = register_module(
      "proj1",
      std::make_shared<nn::PointwiseConv>(cfg.width, 2 * cfg.width, rng));
  proj2_ = register_module(
      "proj2", std::make_shared<nn::PointwiseConv>(2 * cfg.width,
                                                   cfg.out_channels, rng));
}

Var Fno::forward(const Var& x) {
  Var v = lift2_->forward(lift1_->forward(x, Act::kGelu));
  for (auto* layer : layers_) v = layer->forward(v);
  return proj2_->forward(proj1_->forward(v, Act::kGelu));
}

}  // namespace baselines
}  // namespace saufno
