#include "core/unet.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "plan/trace.h"

namespace saufno {
namespace core {

UNet::UNet(int64_t width, int64_t base, int64_t depth, Rng& rng)
    : width_(width), base_(base), depth_(depth) {
  SAUFNO_CHECK(depth >= 1, "UNet depth must be >= 1");
  in_conv_ = register_module(
      "in_conv", std::make_shared<nn::Conv2d>(width, base, 3, rng, 1, 1));
  int64_t ch = base;
  for (int64_t l = 0; l < depth; ++l) {
    enc_.push_back(register_module(
        "enc" + std::to_string(l),
        std::make_shared<nn::Conv2d>(ch, ch * 2, 3, rng, 1, 1)));
    ch *= 2;
  }
  for (int64_t l = depth - 1; l >= 0; --l) {
    // After upsample, the skip connection concatenates the encoder feature
    // (ch/2 channels) with the upsampled one (ch channels).
    dec_.push_back(register_module(
        "dec" + std::to_string(l),
        std::make_shared<nn::Conv2d>(ch + ch / 2, ch / 2, 3, rng, 1, 1)));
    ch /= 2;
  }
  out_conv_ = register_module(
      "out_conv", std::make_shared<nn::PointwiseConv>(base, width, rng));
}

Var UNet::forward(const Var& x) {
  plan::TraceScope scope("unet");
  SAUFNO_CHECK(x.value().dim() == 4, "UNet input must be [B,C,H,W]");
  const int64_t h = x.size(2), w = x.size(3);
  // Clamp depth so the bottleneck keeps at least 4x4 texels.
  int64_t eff = 0;
  {
    int64_t m = std::min(h, w);
    while (eff < depth_ && m >= 8 && m % 2 == 0) {
      m /= 2;
      ++eff;
    }
  }

  Var cur = in_conv_->forward(x, Act::kRelu);
  std::vector<Var> skips;  // encoder outputs, finest first
  for (int64_t l = 0; l < eff; ++l) {
    skips.push_back(cur);
    cur = pool_.forward(cur);
    cur = enc_[static_cast<std::size_t>(l)]->forward(cur, Act::kRelu);
  }
  for (int64_t l = eff - 1; l >= 0; --l) {
    cur = up_.forward(cur);
    cur = ops::cat({cur, skips[static_cast<std::size_t>(l)]}, 1);
    // dec_ is stored deepest-first: dec_[depth-1-l] handles level l.
    cur = dec_[static_cast<std::size_t>(depth_ - 1 - l)]->forward(
        cur, Act::kRelu);
  }
  return out_conv_->forward(cur);
}

}  // namespace core
}  // namespace saufno
