#pragma once

#include "core/attention.h"
#include "core/ufno_layer.h"
#include "nn/linear.h"

namespace saufno {
namespace core {

/// Where to insert self-attention blocks in the iterative stack. The paper
/// finds "last layer only" matches "after every layer" at lower cost
/// (Section III-B); the enum exists so the ablation bench can verify that
/// claim on our reproduction.
enum class AttentionPlacement { kNone, kLast, kAll };

/// SAU-FNO — the paper's primary contribution (Section III).
///
/// Pipeline: lifting P (pointwise MLP to `width` channels) -> L plain
/// Fourier layers -> M U-Fourier layers (Eq. 7) -> self-attention block(s)
/// -> projection Q (pointwise MLP back to output channels).
///
/// With `n_ufourier = 0` and attention kNone this is the plain FNO baseline
/// (Li et al. [23], Eq. 6: lifting, Fourier layers, projection — the "FNO"
/// row of Table II and GAR's coarse stage); with attention kNone it is
/// exactly U-FNO [34]. The paper uses those two ablations as its
/// comparison set, and the model zoo builds both from this one class.
class SauFno : public nn::Module {
 public:
  struct Config {
    int64_t in_channels = 3;    // device-layer power maps + 2 coord channels
    int64_t out_channels = 1;   // device-layer temperature maps
    int64_t width = 16;         // lifted channel dimension
    int64_t modes1 = 12;        // "model structure [12, 12, 2]": modes1
    int64_t modes2 = 12;        //                                 modes2
    int64_t n_fourier = 2;      // L plain Fourier layers
    int64_t n_ufourier = 2;     //                       ...and 2 U-Fourier
    int64_t unet_base = 16;
    int64_t unet_depth = 3;
    int64_t attention_dim = 16;  // Q/K embedding size d
    AttentionPlacement attention = AttentionPlacement::kLast;

    /// The published configuration for Chip1/Chip2 ([12,12,2], attention on
    /// the last layer). The paper's text does not fix one width (its
    /// statements disagree); 16 fits the CPU budget.
    static Config chip_default(int64_t in_ch, int64_t out_ch);
  };

  SauFno(const Config& cfg, Rng& rng);

  /// [B, in_channels, H, W] -> [B, out_channels, H, W]; any H, W.
  Var forward(const Var& x) override;

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  nn::PointwiseConv* lift1_;
  nn::PointwiseConv* lift2_;
  std::vector<UFourierLayer*> layers_;
  std::vector<SelfAttentionBlock*> attn_;  // parallel to layers_ when kAll
  nn::PointwiseConv* proj1_;
  nn::PointwiseConv* proj2_;
};

}  // namespace core
}  // namespace saufno
