#include "autograd/conv_ops.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/kernel_profile.h"
#include "plan/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace ops {
namespace {
using detail::Node;
using detail::accumulate_grad;
}  // namespace

namespace fwd {

void conv2d_into(const Tensor& x, const Tensor& w, const Tensor* bias,
                 int64_t stride, int64_t pad, Act act, Tensor& out) {
  SAUFNO_CHECK(x.dim() == 4, "conv2d input must be [B,C,H,W]");
  SAUFNO_CHECK(w.dim() == 4, "conv2d weight must be [Cout,Cin,kh,kw]");
  const int64_t B = x.size(0), cin = x.size(1), h = x.size(2),
                w_in = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2), kw = w.size(3);
  SAUFNO_CHECK(w.size(1) == cin, "conv2d channel mismatch: input has " +
                                     std::to_string(cin) +
                                     ", weight expects " +
                                     std::to_string(w.size(1)));
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w_in, kw, stride, pad);
  SAUFNO_CHECK(oh > 0 && ow > 0, "conv2d output would be empty");
  const int64_t ck = cin * kh * kw;
  const int64_t plane = oh * ow;
  SAUFNO_CHECK(out.numel() == B * cout * plane,
               "conv2d destination numel mismatch");
  if (bias != nullptr) {
    SAUFNO_CHECK(bias->dim() == 1 && bias->size(0) == cout,
                 "conv2d bias must be [Cout]");
  }

  static obs::Histogram& prof_hist = obs::histogram("kernel.conv2d_us");
  obs::KernelTimer prof_timer(prof_hist, "kernel.conv2d");
  // One "gemm" fault-point evaluation per batch item, the rate the chaos
  // tests' gemm fault probabilities are sized for.
  for (int64_t n = 0; n < B; ++n) SAUFNO_FAULT_POINT("gemm");

  // out[n] = W[cout, ck] * cols[ck, plane], split over (batch item x runs
  // of per_chunk 16-column panels). W is packed once; each chunk builds
  // its panels' columns into <= 128 KB of lane scratch, multiplies, and
  // applies bias then activation to its cout x ncols tile while it is
  // still in cache. Every output element is still gemm_packed's one
  // k-ordered chain, so the split cannot change a bit.
  runtime::Scratch<float> apack(
      static_cast<std::size_t>(gemm_packed_a_floats(cout, ck)));
  gemm_pack_a(w.data(), ck, cout, ck, apack.data());
  const int64_t per_chunk =
      std::max<int64_t>(1, 32768 / (ck * kGemmPanelCols));
  const int64_t span = per_chunk * kGemmPanelCols;
  const int64_t chunks = (plane + span - 1) / span;
  runtime::parallel_for(0, B * chunks, 1, [&](int64_t t0, int64_t t1) {
    runtime::Scratch<float> cols(
        static_cast<std::size_t>(gemm_packed_b_floats(ck, span)));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t n = t / chunks;
      const int64_t c0 = t % chunks * span;
      const int64_t nc = std::min(span, plane - c0);
      im2col_packed_cols(x.data() + n * cin * h * w_in, cols.data(), cin, h,
                         w_in, kh, kw, stride, pad, c0, nc);
      float* dst = out.data() + n * cout * plane + c0;
      gemm_packed(apack.data(), cols.data(), dst, plane, cout, nc, ck,
                  /*accumulate=*/false);
      if (bias == nullptr && act == Act::kNone) continue;
      for (int64_t co = 0; co < cout; ++co) {
        bias_act_row(dst + co * plane, nc,
                     bias != nullptr ? bias->data() + co : nullptr, act);
      }
    }
  });
}

void maxpool2d_into(const Tensor& x, int64_t kernel, int64_t* argmax,
                    Tensor& out) {
  SAUFNO_CHECK(x.dim() == 4, "maxpool2d input must be [B,C,H,W]");
  const int64_t B = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  SAUFNO_CHECK(h >= kernel && w >= kernel,
               "maxpool2d: input smaller than kernel");
  const int64_t oh = conv_out_size(h, kernel, kernel, 0);
  const int64_t ow = conv_out_size(w, kernel, kernel, 0);
  SAUFNO_CHECK(out.numel() == B * c * oh * ow,
               "maxpool2d destination numel mismatch");
  runtime::Scratch<int64_t> local(
      static_cast<std::size_t>(argmax == nullptr ? c * oh * ow : 1));
  for (int64_t n = 0; n < B; ++n) {
    int64_t* arg =
        argmax != nullptr ? argmax + n * c * oh * ow : local.data();
    saufno::maxpool2d(x.data() + n * c * h * w, out.data() + n * c * oh * ow,
                      arg, c, h, w, kernel, kernel);
  }
}

}  // namespace fwd

Var conv2d(const Var& x, const Var& w, const Var& b, int64_t stride,
           int64_t pad, Act act) {
  SAUFNO_CHECK(x.value().dim() == 4, "conv2d input must be [B,C,H,W]");
  SAUFNO_CHECK(w.value().dim() == 4, "conv2d weight must be [Cout,Cin,kh,kw]");
  const int64_t B = x.size(0), cin = x.size(1), h = x.size(2), w_in = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2), kw = w.size(3);
  const int64_t oh = conv_out_size(h, w.size(2), stride, pad);
  const int64_t ow = conv_out_size(w_in, w.size(3), stride, pad);
  const int64_t ck = cin * kh * kw;
  const int64_t plane = oh * ow;
  const bool has_bias = b.defined();

  const bool taped = any_requires_grad({x, w, b.defined() ? b : Var()});
  Tensor out({B, cout, oh, ow});
  fwd::conv2d_into(x.value(), w.value(), has_bias ? &b.value() : nullptr,
                   stride, pad, taped ? Act::kNone : act, out);

  if (!taped) {
    // The undefined bias Var is skipped by the tracer; ivals' has_bias flag
    // tells the executor how many inputs to expect.
    plan::tr::Attrs attrs;
    attrs.ivals = {stride, pad, has_bias ? 1 : 0};
    attrs.act = act;
    return plan::tr::record(plan::OpCode::kConv2d, {&x, &w, &b},
                            Var(std::move(out)), attrs);
  }
  std::vector<Var> inputs = {x, w};
  if (has_bias) inputs.push_back(b);
  auto node = std::make_shared<Node>();
  node->name = "conv2d";
  for (auto& v : inputs) node->inputs.push_back(v.impl());
  auto ix = x.impl(), iw = w.impl();
  auto ib = has_bias ? b.impl() : nullptr;
  node->backward = [=](const Tensor& g) {
    const int64_t ckl = ck, pl = plane;
    Tensor gx = Tensor::zeros({B, cin, h, w_in});
    Tensor gw = Tensor::zeros({cout, cin, kh, kw});
    Tensor gb = has_bias ? Tensor::zeros({cout}) : Tensor();
    runtime::Scratch<float> colbuf(static_cast<std::size_t>(ckl * pl));
    runtime::Scratch<float> gcol(static_cast<std::size_t>(ckl * pl));
    // wT: [ck, cout] used for gx = wT * gout
    Tensor wt = transpose2d(iw->value.reshape({cout, ckl}));
    for (int64_t n = 0; n < B; ++n) {
      const float* gout = g.data() + n * cout * pl;
      // Weight gradient: gW += gout[cout, plane] * cols^T[plane, ck].
      im2col(ix->value.data() + n * cin * h * w_in, colbuf.data(), cin, h,
             w_in, kh, kw, stride, pad);
      // gw[cout, ck] += gout * colbuf^T  ==  gemm(gout, colbuf^T)
      // colbuf^T computed on the fly: use gemm with B transposed by
      // reinterpreting: we need C[co, c] = sum_p gout[co,p] colbuf[c,p].
      // Transpose colbuf once into gcol (reused as scratch).
      for (int64_t c = 0; c < ckl; ++c) {
        for (int64_t p = 0; p < pl; ++p) {
          gcol.data()[p * ckl + c] = colbuf.data()[c * pl + p];
        }
      }
      gemm(gout, gcol.data(), gw.data(), cout, ckl, pl, /*accumulate=*/true);
      // Input gradient: gcols = wT[ck, cout] * gout[cout, plane].
      gemm(wt.data(), gout, gcol.data(), ckl, pl, cout, /*accumulate=*/false);
      col2im(gcol.data(), gx.data() + n * cin * h * w_in, cin, h, w_in, kh,
             kw, stride, pad);
      if (has_bias) {
        float* gbp = gb.data();
        for (int64_t co = 0; co < cout; ++co) {
          const float* row = gout + co * pl;
          double s = 0.0;
          for (int64_t i = 0; i < pl; ++i) s += row[i];
          gbp[co] += static_cast<float>(s);
        }
      }
    }
    accumulate_grad(ix, gx);
    accumulate_grad(iw, gw);
    if (has_bias) accumulate_grad(ib, gb);
  };
  return apply_act(Var::from_op(std::move(out), node), act);
}

Var maxpool2d(const Var& x, int64_t kernel) {
  SAUFNO_CHECK(x.value().dim() == 4, "maxpool2d input must be [B,C,H,W]");
  const int64_t B = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  SAUFNO_CHECK(h >= kernel && w >= kernel,
               "maxpool2d: input smaller than kernel");
  const int64_t oh = conv_out_size(h, kernel, kernel, 0);
  const int64_t ow = conv_out_size(w, kernel, kernel, 0);
  Tensor out({B, c, oh, ow});
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<std::size_t>(B * c * oh * ow));
  fwd::maxpool2d_into(x.value(), kernel, argmax->data(), out);
  plan::tr::Attrs attrs;
  attrs.ivals = {kernel};
  if (!should_record(x)) {
    return plan::tr::record(plan::OpCode::kMaxPool2d, {&x},
                            Var(std::move(out)), attrs);
  }
  auto node = std::make_shared<Node>();
  node->name = "maxpool2d";
  node->inputs.push_back(x.impl());
  auto ix = x.impl();
  node->backward = [=](const Tensor& g) {
    Tensor gx = Tensor::zeros({B, c, h, w});
    const float* gp = g.data();
    float* gxp = gx.data();
    const int64_t pooled = oh * ow;
    for (int64_t n = 0; n < B; ++n) {
      for (int64_t ci = 0; ci < c; ++ci) {
        const int64_t base = (n * c + ci);
        const float* gplane = gp + base * pooled;
        float* gxplane = gxp + base * h * w;
        const int64_t* arg = argmax->data() + base * pooled;
        for (int64_t i = 0; i < pooled; ++i) gxplane[arg[i]] += gplane[i];
      }
    }
    accumulate_grad(ix, gx);
  };
  return Var::from_op(std::move(out), node);
}

}  // namespace ops
}  // namespace saufno
