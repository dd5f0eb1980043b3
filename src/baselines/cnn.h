#pragma once

#include "nn/conv.h"

namespace saufno {
namespace baselines {

/// Plain convolutional baseline in the spirit of Hua et al. [17]: a stack
/// of same-resolution 3x3 convolutions mapping power maps to temperature
/// maps. It has no operator structure — Section IV-B notes that such
/// networks "lack resolution invariance and were not extensively compared
/// for fairness"; it is included here for the related-work comparison and
/// as a sanity baseline for the training substrate.
class Cnn : public nn::Module {
 public:
  struct Config {
    int64_t in_channels = 3;
    int64_t out_channels = 1;
    int64_t hidden = 24;
    int64_t depth = 4;
  };

  Cnn(const Config& cfg, Rng& rng);
  Var forward(const Var& x) override;

 private:
  Config cfg_;
  std::vector<nn::Conv2d*> convs_;
};

}  // namespace baselines
}  // namespace saufno
