#pragma once

// The unfused forward convolution, one batch item at a time: im2col, then
// gemm, then +bias, then the activation, each over the whole plane. It is
// the bit-exact baseline for ops::fwd::conv2d_into in test_tensor and
// bench_kernels, not part of the library.

#include <cstdint>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace saufno {

inline Tensor conv2d_reference(const Tensor& x, const Tensor& w,
                               const Tensor* bias, int64_t stride,
                               int64_t pad, Act act) {
  const int64_t B = x.size(0), cin = x.size(1), h = x.size(2),
                wd = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(wd, kw, stride, pad);
  const int64_t ck = cin * kh * kw, plane = oh * ow;
  Tensor out({B, cout, oh, ow});
  std::vector<float> cols(static_cast<std::size_t>(ck * plane));
  for (int64_t n = 0; n < B; ++n) {
    im2col(x.data() + n * cin * h * wd, cols.data(), cin, h, wd, kh, kw,
           stride, pad);
    float* dst = out.data() + n * cout * plane;
    gemm(w.data(), cols.data(), dst, cout, plane, ck, /*accumulate=*/false);
    if (bias != nullptr) {
      for (int64_t co = 0; co < cout; ++co) {
        for (int64_t i = 0; i < plane; ++i) {
          dst[co * plane + i] += bias->data()[co];
        }
      }
    }
    if (act != Act::kNone) {
      for (int64_t i = 0; i < cout * plane; ++i) {
        dst[i] = act_apply(act, dst[i]);
      }
    }
  }
  return out;
}

}  // namespace saufno
