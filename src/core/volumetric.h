#pragma once

#include "autograd/spectral3d_ops.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace saufno {
namespace core {

/// 3-D Fourier-domain convolution module over [B, C, D, H, W] volumes.
class SpectralConv3d : public nn::Module {
 public:
  SpectralConv3d(int64_t cin, int64_t cout, int64_t modes1, int64_t modes2,
                 int64_t modes3, Rng& rng);
  Var forward(const Var& x) override;

 private:
  int64_t cin_, cout_, m1_, m2_, m3_;
  Var weight_;  // [cin, cout, 2*m1, 2*m2, m3, 2]
};

/// Volumetric Fourier Neural Operator: maps a 3-D power-density volume to
/// the full 3-D temperature distribution — the paper's literal output
/// space ("the model output is a three-dimensional temperature
/// distribution", Section IV-A). The layer-map (2-D) pipeline remains the
/// primary reproduction because the paper's resolutions (40x40, 64x64) and
/// figures are per-layer maps, but this model serves users who need the
/// stack interior (e.g. TSV or TIM temperatures).
///
/// Pipeline: pointwise lifting -> n_layers x [spectral conv + pointwise
/// linear, GELU] -> pointwise projection. Mesh invariant along all three
/// axes (modes clamp per axis, so the thin z-direction of real chip stacks
/// is handled with 1-2 kept modes).
class Fno3d : public nn::Module {
 public:
  struct Config {
    int64_t in_channels = 4;   // power volume + 3 coord channels
    int64_t out_channels = 1;  // temperature volume
    int64_t width = 8;
    int64_t modes1 = 2;        // depth modes (chip stacks are thin)
    int64_t modes2 = 6;
    int64_t modes3 = 6;
    int64_t n_layers = 3;
  };

  Fno3d(const Config& cfg, Rng& rng);
  /// [B, in_channels, D, H, W] -> [B, out_channels, D, H, W].
  Var forward(const Var& x) override;

  /// act(PointwiseConv) across the channel dim of a 5-D volume.
  static Var pointwise5d(nn::PointwiseConv& pw, const Var& x,
                         Act act = Act::kNone);

 private:
  Config cfg_;
  nn::PointwiseConv* lift_;
  std::vector<SpectralConv3d*> spectral_;
  std::vector<nn::PointwiseConv*> linear_;
  nn::PointwiseConv* proj1_;
  nn::PointwiseConv* proj2_;
};

}  // namespace core
}  // namespace saufno
