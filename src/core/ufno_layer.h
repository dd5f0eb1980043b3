#pragma once

#include "core/spectral_conv.h"
#include "core/unet.h"
#include "nn/linear.h"

namespace saufno {
namespace core {

/// One iterative layer of the operator (Section III-A).
///
/// Plain Fourier layer (Eq. 6):    v' = sigma( K v + W v )
/// U-Fourier layer    (Eq. 8):     v' = sigma( K v + U v + W v )
/// where K is the spectral convolution, U the U-Net bypass and W a 1x1
/// channel map ("linear bias term"). `with_unet` selects between the two,
/// so the same class implements both halves of the iterative stack
/// v_l0 -> ... -> v_lL -> v_m0 -> ... -> v_mM (Eq. 7).
class UFourierLayer : public nn::Module {
 public:
  struct Config {
    int64_t width = 16;       // channel dimension c
    int64_t modes1 = 12;      // kept Fourier modes along H
    int64_t modes2 = 12;      // kept Fourier modes along W
    bool with_unet = true;    // U-Fourier (true) vs plain Fourier (false)
    int64_t unet_base = 16;   // first-level U-Net channels
    int64_t unet_depth = 3;   // max pooling levels in the bypass
  };

  UFourierLayer(const Config& cfg, Rng& rng);

  Var forward(const Var& v) override;

 private:
  Config cfg_;
  SpectralConv2d* k_;
  UNet* u_ = nullptr;
  nn::PointwiseConv* w_;
};

}  // namespace core
}  // namespace saufno
