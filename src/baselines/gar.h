#pragma once

#include "core/sau_fno.h"
#include "nn/linear.h"

namespace saufno {
namespace baselines {

/// GAR baseline [36] — generalized autoregression for multi-fidelity
/// fusion, adapted as a thermal operator (the "GAR" row of Table II).
///
/// GAR's essence is autoregressive fusion: a coarse (low-fidelity)
/// prediction is lifted to the target fidelity and combined with the input
/// through a learned (tensor-)linear map. Our executable reading:
///
///   y_lo = CoarseOp(downsample(x))        — small FNO at half resolution
///   y    = alpha * upsample(y_lo) + LinearResidual(x)
///
/// where LinearResidual is a pointwise channel map (GAR's transfer matrices
/// are linear; spatially-global tensor algebra is approximated by the
/// resolution lift). GAR lacks U-Net/attention machinery for local
/// high-frequency structure, and — as in the paper's Table II — trails the
/// FNO family on junction-temperature accuracy.
class Gar : public nn::Module {
 public:
  struct Config {
    int64_t in_channels = 3;
    int64_t out_channels = 1;
    int64_t coarse_width = 8;   // internal coarse FNO width
    int64_t coarse_modes = 6;
    int64_t coarse_layers = 2;
  };

  Gar(const Config& cfg, Rng& rng);
  Var forward(const Var& x) override;

 private:
  Config cfg_;
  core::SauFno* coarse_;  // a plain FNO: no U-Fourier layer, no attention
  nn::PointwiseConv* residual_;
  Var alpha_;  // learnable fusion weight (scalar per output channel)
};

}  // namespace baselines
}  // namespace saufno
