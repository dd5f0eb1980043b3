#include "core/volumetric.h"

#include <memory>

#include "common/logging.h"
#include "plan/trace.h"

namespace saufno {
namespace core {

SpectralConv3d::SpectralConv3d(int64_t cin, int64_t cout, int64_t modes1,
                               int64_t modes2, int64_t modes3, Rng& rng)
    : cin_(cin), cout_(cout), m1_(modes1), m2_(modes2), m3_(modes3) {
  weight_ = register_parameter(
      "weight",
      Var(nn::spectral_init({cin_, cout_, 2 * m1_, 2 * m2_, m3_, 2}, cin_,
                            cout_, rng),
          /*requires_grad=*/true));
}

Var SpectralConv3d::forward(const Var& x) {
  plan::TraceScope scope("spectral3d");
  return ops::spectral_conv3d(x, weight_, m1_, m2_, m3_, cout_);
}

Fno3d::Fno3d(const Config& cfg, Rng& rng) : cfg_(cfg) {
  lift_ = register_module(
      "lift",
      std::make_shared<nn::PointwiseConv>(cfg.in_channels, cfg.width, rng));
  for (int64_t i = 0; i < cfg.n_layers; ++i) {
    spectral_.push_back(register_module(
        "spectral" + std::to_string(i),
        std::make_shared<SpectralConv3d>(cfg.width, cfg.width, cfg.modes1,
                                         cfg.modes2, cfg.modes3, rng)));
    linear_.push_back(register_module(
        "linear" + std::to_string(i),
        std::make_shared<nn::PointwiseConv>(cfg.width, cfg.width, rng)));
  }
  proj1_ = register_module(
      "proj1",
      std::make_shared<nn::PointwiseConv>(cfg.width, 2 * cfg.width, rng));
  proj2_ = register_module(
      "proj2", std::make_shared<nn::PointwiseConv>(2 * cfg.width,
                                                   cfg.out_channels, rng));
}

Var Fno3d::pointwise5d(nn::PointwiseConv& pw, const Var& x, Act act) {
  // PointwiseConv acts per spatial position; fold depth into the height
  // axis, apply, and unfold — exactly equivalent for a 1x1 channel map.
  const int64_t B = x.size(0), C = x.size(1), D = x.size(2), H = x.size(3),
                W = x.size(4);
  Var folded = ops::reshape(x, {B, C, D * H, W});
  Var y = pw.forward(folded, act);
  return ops::reshape(y, {B, y.size(1), D, H, W});
}

Var Fno3d::forward(const Var& x) {
  plan::TraceScope scope("fno3d");
  SAUFNO_CHECK(x.value().dim() == 5, "Fno3d input must be [B,C,D,H,W]");
  SAUFNO_CHECK(x.size(1) == cfg_.in_channels,
               "Fno3d expects " + std::to_string(cfg_.in_channels) +
                   " channels, got " + std::to_string(x.size(1)));
  Var v = pointwise5d(*lift_, x, Act::kGelu);
  for (std::size_t i = 0; i < spectral_.size(); ++i) {
    Var wv = pointwise5d(*linear_[i], v);
    v = ops::add_act(spectral_[i]->forward(v), wv, Var(), Act::kGelu);
  }
  return pointwise5d(*proj2_, pointwise5d(*proj1_, v, Act::kGelu));
}

}  // namespace core
}  // namespace saufno
