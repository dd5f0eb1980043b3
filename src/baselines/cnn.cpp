#include "baselines/cnn.h"

#include <memory>

namespace saufno {
namespace baselines {

Cnn::Cnn(const Config& cfg, Rng& rng) : cfg_(cfg) {
  int64_t cin = cfg.in_channels;
  for (int64_t i = 0; i < cfg.depth; ++i) {
    const int64_t cout = (i == cfg.depth - 1) ? cfg.out_channels : cfg.hidden;
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<nn::Conv2d>(cin, cout, 3, rng, 1, 1)));
    cin = cout;
  }
}

Var Cnn::forward(const Var& x) {
  Var cur = x;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    cur = convs_[i]->forward(
        cur, i + 1 < convs_.size() ? Act::kRelu : Act::kNone);
  }
  return cur;
}

}  // namespace baselines
}  // namespace saufno
