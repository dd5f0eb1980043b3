#include "autograd/spectral3d_ops.h"

#include <complex>
#include <cstring>

#include "common/logging.h"
#include "fft/fft.h"
#include "plan/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace saufno {
namespace ops {

namespace spectral {

std::vector<std::pair<int64_t, int64_t>> signed_axis_map(int64_t n,
                                                         int64_t m) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const int64_t me = std::min(m, n / 2);
  out.reserve(static_cast<std::size_t>(2 * me));
  for (int64_t r = 0; r < me; ++r) out.emplace_back(r, r);
  for (int64_t s = 0; s < me; ++s) out.emplace_back(m + s, n - me + s);
  return out;
}

}  // namespace spectral

namespace {

using detail::Node;
using detail::accumulate_grad;
using spectral::signed_axis_map;

using AxisMap = std::vector<std::pair<int64_t, int64_t>>;

/// 3-D analogue of the 2-D herm_prep: rewrite one compact [D, H, wk]
/// spectrum Y (nonzero only on kept modes, all with k3 < W/2) so that
/// irfft_3d(result) == Re(IFFT3(Y embedded in the full spectrum)):
/// symmetrize the k3 = 0 plane over the (kd, kh) torus, halve the other
/// kept columns. `planebuf` must hold D*H cfloats.
void herm_prep_3d(cfloat* vol, int64_t D, int64_t H, int64_t wk,
                  const AxisMap& map_d, const AxisMap& map_h,
                  cfloat* planebuf) {
  for (int64_t kd = 0; kd < D; ++kd) {
    for (int64_t kh = 0; kh < H; ++kh) {
      planebuf[kd * H + kh] = vol[(kd * H + kh) * wk];
    }
  }
  for (int64_t kd = 0; kd < D; ++kd) {
    for (int64_t kh = 0; kh < H; ++kh) {
      const cfloat mirror =
          std::conj(planebuf[((D - kd) % D) * H + (H - kh) % H]);
      vol[(kd * H + kh) * wk] = 0.5f * (planebuf[kd * H + kh] + mirror);
    }
  }
  for (const auto& [wr, kd] : map_d) {
    (void)wr;
    for (const auto& [wc, kh] : map_h) {
      (void)wc;
      cfloat* row = vol + (kd * H + kh) * wk;
      for (int64_t k = 1; k < wk; ++k) row[k] *= 0.5f;
    }
  }
}

}  // namespace

namespace fwd {

void spectral_conv3d_into(const Tensor& x, const Tensor& w, int64_t m1,
                          int64_t m2, int64_t m3, int64_t cout, Tensor& out) {
  SAUFNO_CHECK(x.dim() == 5, "spectral_conv3d input must be [B,C,D,H,W]");
  SAUFNO_CHECK(w.dim() == 6,
               "spectral_conv3d weight must be [Cin,Cout,2*m1,2*m2,m3,2]");
  const int64_t B = x.size(0), cin = x.size(1), D = x.size(2), H = x.size(3),
                W = x.size(4);
  SAUFNO_CHECK(w.size(0) == cin && w.size(1) == cout &&
                   w.size(2) == 2 * m1 && w.size(3) == 2 * m2 &&
                   w.size(4) == m3 && w.size(5) == 2,
               "spectral_conv3d weight shape mismatch");
  SAUFNO_CHECK(out.numel() == B * cout * D * H * W,
               "spectral_conv3d destination numel mismatch");
  const AxisMap map_d = signed_axis_map(D, m1);
  const AxisMap map_h = signed_axis_map(H, m2);
  const int64_t wk = std::min(m3, W / 2);
  const int64_t nd = static_cast<int64_t>(map_d.size());
  const int64_t mhe = std::min(m2, H / 2);  // per-side kept count along H

  auto widx = [=](int64_t i, int64_t o, int64_t r, int64_t c, int64_t k) {
    return ((((i * cout + o) * (2 * m1) + r) * (2 * m2) + c) * m3 + k) * 2;
  };

  if (wk == 0 || map_d.empty() || map_h.empty()) {
    out.fill_(0.f);
    return;
  }

  const int64_t cvol = D * H * wk;  // compact half-spectrum volume

  runtime::Scratch<cfloat> xf(static_cast<std::size_t>(B * cin * cvol));
  runtime::Scratch<cfloat> yf(static_cast<std::size_t>(B * cout * cvol));
  rfft_3d(x.data(), xf.data(), B * cin, D, H, W, wk, mhe);
  yf.zero();

  // One chunk owns one (batch, kept-kd) pair: disjoint output rows, fixed
  // accumulation order, bit-identical across thread counts. The inner k
  // loop runs over contiguous kept columns in both the compact spectrum
  // and the weight layout.
  const float* wp = w.data();
  const float* xfp = reinterpret_cast<const float*>(xf.data());
  float* yfp = reinterpret_cast<float*>(yf.data());
  runtime::parallel_for(0, B * nd, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t idx = i0; idx < i1; ++idx) {
      const int64_t b = idx / nd;
      const auto& [wr, kd] = map_d[static_cast<std::size_t>(idx % nd)];
      for (const auto& [wc, kh] : map_h) {
        const int64_t off = (kd * H + kh) * wk;
        for (int64_t o = 0; o < cout; ++o) {
          float* yrow = yfp + 2 * ((b * cout + o) * cvol + off);
          for (int64_t i = 0; i < cin; ++i) {
            const float* wrow = wp + widx(i, o, wr, wc, 0);
            const float* xrow = xfp + 2 * ((b * cin + i) * cvol + off);
            for (int64_t k = 0; k < wk; ++k) {
              const float xr = xrow[2 * k], xi = xrow[2 * k + 1];
              const float ar = wrow[2 * k], ai = wrow[2 * k + 1];
              yrow[2 * k] += ar * xr - ai * xi;
              yrow[2 * k + 1] += ar * xi + ai * xr;
            }
          }
        }
      }
    }
  });

  runtime::parallel_for(0, B * cout, 1, [&](int64_t p0, int64_t p1) {
    runtime::Scratch<cfloat> planebuf(static_cast<std::size_t>(D * H));
    for (int64_t p = p0; p < p1; ++p) {
      herm_prep_3d(yf.data() + p * cvol, D, H, wk, map_d, map_h,
                   planebuf.data());
    }
  });
  // The k3=0 symmetrization populates one extra kh row per side, so the
  // inverse depth pass widens its kept set by one.
  irfft_3d(yf.data(), out.data(), B * cout, D, H, W, wk, mhe + 1, 1.f);
}

}  // namespace fwd

Var spectral_conv3d(const Var& x, const Var& w, int64_t m1, int64_t m2,
                    int64_t m3, int64_t cout) {
  SAUFNO_CHECK(x.value().dim() == 5,
               "spectral_conv3d input must be [B,C,D,H,W]");
  SAUFNO_CHECK(w.value().dim() == 6,
               "spectral_conv3d weight must be [Cin,Cout,2*m1,2*m2,m3,2]");
  const int64_t B = x.size(0), cin = x.size(1), D = x.size(2),
                H = x.size(3), W = x.size(4);
  SAUFNO_CHECK(w.size(0) == cin && w.size(1) == cout &&
                   w.size(2) == 2 * m1 && w.size(3) == 2 * m2 &&
                   w.size(4) == m3 && w.size(5) == 2,
               "spectral_conv3d weight shape mismatch");
  const AxisMap map_d = signed_axis_map(D, m1);
  const AxisMap map_h = signed_axis_map(H, m2);
  const int64_t wk = std::min(m3, W / 2);
  const int64_t nd = static_cast<int64_t>(map_d.size());
  const int64_t mhe = std::min(m2, H / 2);  // per-side kept count along H

  auto widx = [=](int64_t i, int64_t o, int64_t r, int64_t c, int64_t k) {
    return ((((i * cout + o) * (2 * m1) + r) * (2 * m2) + c) * m3 + k) * 2;
  };

  plan::tr::Attrs attrs;
  attrs.ivals = {m1, m2, m3, cout};

  if (wk == 0 || map_d.empty() || map_h.empty()) {
    Tensor out = Tensor::zeros({B, cout, D, H, W});
    if (!any_requires_grad({x, w})) {
      return plan::tr::record(plan::OpCode::kSpectralConv3d, {&x, &w},
                              Var(std::move(out)), attrs);
    }
    auto node = std::make_shared<Node>();
    node->name = "spectral_conv3d";
    node->inputs = {x.impl(), w.impl()};
    auto ix = x.impl(), iw = w.impl();
    node->backward = [=](const Tensor&) {
      accumulate_grad(ix, Tensor::zeros(ix->value.shape()));
      accumulate_grad(iw, Tensor::zeros(iw->value.shape()));
    };
    return Var::from_op(std::move(out), node);
  }

  const int64_t cvol = D * H * wk;  // compact half-spectrum volume

  Tensor out({B, cout, D, H, W});
  fwd::spectral_conv3d_into(x.value(), w.value(), m1, m2, m3, cout, out);

  if (!any_requires_grad({x, w})) {
    return plan::tr::record(plan::OpCode::kSpectralConv3d, {&x, &w},
                            Var(std::move(out)), attrs);
  }

  auto node = std::make_shared<Node>();
  node->name = "spectral_conv3d";
  node->inputs = {x.impl(), w.impl()};
  auto ix = x.impl(), iw = w.impl();
  node->backward = [=](const Tensor& g) {
    // Same half-spectrum adjoints as the 2-D op (see spectral_ops.cpp):
    // with R = rfft3(g) and N = D*H*W, G = IFFT3(g) = conj(R)/N on kept
    // modes, zc = N*conj(z) = sum_o R * conj(W), gx = irfft_3d(prep(zc)),
    // gW = (sum_b R * conj(Xf)) / N.
    runtime::Scratch<cfloat> gf(static_cast<std::size_t>(B * cout * cvol));
    runtime::Scratch<cfloat> xf2(static_cast<std::size_t>(B * cin * cvol));
    runtime::Scratch<cfloat> zc(static_cast<std::size_t>(B * cin * cvol));
    rfft_3d(g.data(), gf.data(), B * cout, D, H, W, wk, mhe);
    rfft_3d(ix->value.data(), xf2.data(), B * cin, D, H, W, wk, mhe);
    zc.zero();

    const float* wp2 = iw->value.data();
    Tensor gw = Tensor::zeros(iw->value.shape());
    float* gwp = gw.data();
    const float* gfp = reinterpret_cast<const float*>(gf.data());
    const float* xfp = reinterpret_cast<const float*>(xf2.data());
    float* zp = reinterpret_cast<float*>(zc.data());
    // One chunk owns one kept kd: its weight rows (gW) and spectrum rows
    // (zc) are touched by no other chunk.
    runtime::parallel_for(0, nd, 1, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const auto& [wr, kd] = map_d[static_cast<std::size_t>(r)];
        for (const auto& [wc, kh] : map_h) {
          const int64_t off = (kd * H + kh) * wk;
          for (int64_t b = 0; b < B; ++b) {
            for (int64_t o = 0; o < cout; ++o) {
              const float* grow = gfp + 2 * ((b * cout + o) * cvol + off);
              for (int64_t i = 0; i < cin; ++i) {
                float* zrow = zp + 2 * ((b * cin + i) * cvol + off);
                const float* xrow = xfp + 2 * ((b * cin + i) * cvol + off);
                const float* wrow = wp2 + widx(i, o, wr, wc, 0);
                float* gwrow = gwp + widx(i, o, wr, wc, 0);
                for (int64_t k = 0; k < wk; ++k) {
                  const float gr = grow[2 * k], gi = grow[2 * k + 1];
                  const float ar = wrow[2 * k], ai = wrow[2 * k + 1];
                  zrow[2 * k] += gr * ar + gi * ai;
                  zrow[2 * k + 1] += gi * ar - gr * ai;
                  const float xr = xrow[2 * k], xi = xrow[2 * k + 1];
                  gwrow[2 * k] += gr * xr + gi * xi;
                  gwrow[2 * k + 1] += gi * xr - gr * xi;
                }
              }
            }
          }
        }
      }
    });
    gw.mul_(1.f / static_cast<float>(D * H * W));

    runtime::parallel_for(0, B * cin, 1, [&](int64_t p0, int64_t p1) {
      runtime::Scratch<cfloat> planebuf(static_cast<std::size_t>(D * H));
      for (int64_t p = p0; p < p1; ++p) {
        herm_prep_3d(zc.data() + p * cvol, D, H, wk, map_d, map_h,
                     planebuf.data());
      }
    });
    Tensor gx({B, cin, D, H, W});
    irfft_3d(zc.data(), gx.data(), B * cin, D, H, W, wk, mhe + 1, 1.f);
    accumulate_grad(ix, gx);
    accumulate_grad(iw, gw);
  };
  return Var::from_op(std::move(out), node);
}

}  // namespace ops
}  // namespace saufno
