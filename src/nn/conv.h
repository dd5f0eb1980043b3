#pragma once

#include "nn/init.h"
#include "nn/module.h"

namespace saufno {
namespace nn {

/// Standard 2-D convolution module over [B, Cin, H, W].
/// kernel/stride/pad are square; the U-Net uses 3x3 stride-1 pad-1 so the
/// spatial size is preserved at every scale.
class Conv2d : public Module {
 public:
  Conv2d(int64_t cin, int64_t cout, int64_t kernel, Rng& rng,
         int64_t stride = 1, int64_t pad = 0, bool bias = true);

  Var forward(const Var& x) override;
  /// The conv followed by `act` (fused into the conv without a tape).
  Var forward(const Var& x, Act act);

  int64_t out_channels() const { return cout_; }

 private:
  int64_t cin_, cout_, kernel_, stride_, pad_;
  Var weight_;  // [Cout, Cin, k, k]
  Var bias_;    // [Cout]
};

}  // namespace nn
}  // namespace saufno
