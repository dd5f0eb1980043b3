#pragma once

#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pool.h"

namespace saufno {
namespace core {

/// U-Net bypass of the U-Fourier layer (Section III-A).
///
/// Encoder: `depth` levels of [3x3 conv + ReLU, 2x2 max-pool] with channel
/// counts doubling per level (the paper's reference config is
/// [64,128,256,512]; here the base count is configurable so the model fits
/// a CPU budget). Decoder: bilinear upsampling + skip concatenation + 3x3
/// conv, restoring the original resolution; a final 1x1 conv maps back to
/// `width` channels so the bypass adds to the Fourier and linear paths.
///
/// Mesh invariance caveat: pooling halves resolution, so at forward time
/// the effective depth is clamped to keep the bottleneck at least 4x4. The
/// unused deeper levels simply receive no gradient at coarse resolutions —
/// this is what lets one parameter set train at 40x40 and infer at 64x64.
class UNet : public nn::Module {
 public:
  /// `width`: channels entering/leaving the bypass.
  /// `base`: channels of the first encoder level.
  /// `depth`: maximum number of pooling levels.
  UNet(int64_t width, int64_t base, int64_t depth, Rng& rng);

  Var forward(const Var& x) override;

 private:
  int64_t width_, base_, depth_;
  nn::Conv2d* in_conv_;
  std::vector<nn::Conv2d*> enc_;   // conv at each level (after pool)
  std::vector<nn::Conv2d*> dec_;   // conv after upsample+skip concat
  nn::PointwiseConv* out_conv_;
  nn::MaxPool2d pool_{2};
  nn::UpsampleBilinear up_{2};
};

}  // namespace core
}  // namespace saufno
