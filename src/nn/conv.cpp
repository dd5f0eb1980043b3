#include "nn/conv.h"

#include "autograd/conv_ops.h"

namespace saufno {
namespace nn {

Conv2d::Conv2d(int64_t cin, int64_t cout, int64_t kernel, Rng& rng,
               int64_t stride, int64_t pad, bool bias)
    : cin_(cin), cout_(cout), kernel_(kernel), stride_(stride), pad_(pad) {
  const int64_t fan_in = cin * kernel * kernel;
  weight_ = register_parameter(
      "weight", Var(kaiming_uniform({cout_, cin_, kernel_, kernel_}, fan_in, rng),
                    /*requires_grad=*/true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Var(Tensor::zeros({cout_}), /*requires_grad=*/true));
  }
}

Var Conv2d::forward(const Var& x) { return forward(x, Act::kNone); }

Var Conv2d::forward(const Var& x, Act act) {
  return ops::conv2d(x, weight_, bias_, stride_, pad_, act);
}

}  // namespace nn
}  // namespace saufno
