#include "nn/linear.h"

#include "autograd/conv_ops.h"
#include "common/logging.h"

namespace saufno {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter(
      "weight",
      Var(xavier_uniform({in_, out_}, in_, out_, rng), /*requires_grad=*/true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Var(Tensor::zeros({out_}), /*requires_grad=*/true));
  }
}

Var Linear::forward(const Var& x) {
  const Shape in_shape = x.shape();
  SAUFNO_CHECK(!in_shape.empty() && in_shape.back() == in_,
               "Linear expects last dim " + std::to_string(in_) + ", got " +
                   shape_str(in_shape));
  Var flat = ops::reshape(x, {-1, in_});
  Var y = ops::matmul(flat, weight_);
  if (bias_.defined()) y = ops::add(y, bias_);
  Shape out_shape = in_shape;
  out_shape.back() = out_;
  return ops::reshape(y, std::move(out_shape));
}

PointwiseConv::PointwiseConv(int64_t cin, int64_t cout, Rng& rng, bool bias)
    : cin_(cin), cout_(cout) {
  weight_ = register_parameter(
      "weight",
      Var(xavier_uniform({cin_, cout_}, cin_, cout_, rng),
          /*requires_grad=*/true));
  if (bias) {
    bias_ = register_parameter(
        "bias", Var(Tensor::zeros({cout_}), /*requires_grad=*/true));
  }
}

Var PointwiseConv::forward(const Var& x, Act act) {
  SAUFNO_CHECK(x.value().dim() == 4, "PointwiseConv input must be [B,C,H,W]");
  SAUFNO_CHECK(x.size(1) == cin_, "PointwiseConv expects " +
                                      std::to_string(cin_) + " channels, got " +
                                      std::to_string(x.size(1)));
  // The [cout, cin, 1, 1] view reads only the parameter, so a plan trace
  // folds it into a constant. Each output element is the same k-ordered
  // gemm chain as x^T W, and the epilogue runs add-bias-then-act's
  // expressions, so this is bit-identical to permute -> matmul -> add ->
  // permute -> act.
  Var w = ops::reshape(ops::permute(weight_, {1, 0}), {cout_, cin_, 1, 1});
  return ops::conv2d(x, w, bias_, /*stride=*/1, /*pad=*/0, act);
}

}  // namespace nn
}  // namespace saufno
