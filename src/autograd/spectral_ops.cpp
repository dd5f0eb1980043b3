#include "autograd/spectral_ops.h"

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

ModeMap make_mode_map(int64_t H, int64_t W, int64_t m1, int64_t m2) {
  ModeMap mm;
  const int64_t m1e = std::min(m1, H / 2);
  mm.m2e = std::min(m2, W / 2);
  mm.rows.reserve(static_cast<std::size_t>(2 * m1e));
  // Positive frequencies: weight rows 0..m1e-1 -> spectrum rows 0..m1e-1.
  for (int64_t r = 0; r < m1e; ++r) mm.rows.emplace_back(r, r);
  // Negative frequencies: weight rows m1..m1+m1e-1 -> spectrum rows
  // H-m1e..H-1. Indexing from m1 (not 2*m1-m1e) keeps a given weight row
  // bound to the same frequency k1 at every resolution, which transfer
  // learning across fidelities relies on.
  for (int64_t s = 0; s < m1e; ++s) mm.rows.emplace_back(m1 + s, H - m1e + s);
  return mm;
}

}  // namespace spectral

namespace {

using detail::Node;
using detail::accumulate_grad;
using spectral::ModeMap;
using spectral::make_mode_map;

/// Rewrite one compact [H, wk] spectrum Y (nonzero only on the kept modes)
/// so that irfft_2d(result) == Re(IFFT2(Y embedded in the full H x W
/// spectrum)). Since every kept column satisfies k2 < W/2, the Hermitian
/// mirror of column k2 >= 1 lands outside the kept set and the identity
/// Re(IFFT(Y)) = IFFT((Y + herm(Y))/2) reduces to: symmetrize column 0
/// across rows, halve the remaining kept columns.
void herm_prep(cfloat* plane, int64_t H, int64_t wk,
               const std::vector<std::pair<int64_t, int64_t>>& rows,
               cfloat* colbuf) {
  for (int64_t k1 = 0; k1 < H; ++k1) colbuf[k1] = plane[k1 * wk];
  for (int64_t k1 = 0; k1 < H; ++k1) {
    plane[k1 * wk] = 0.5f * (colbuf[k1] + std::conj(colbuf[(H - k1) % H]));
  }
  for (const auto& [wr, kr] : rows) {
    (void)wr;
    for (int64_t c = 1; c < wk; ++c) plane[kr * wk + c] *= 0.5f;
  }
}

}  // namespace

namespace fwd {

void spectral_conv2d_into(const Tensor& x, const Tensor& w, int64_t m1,
                          int64_t m2, int64_t cout, Tensor& out) {
  SAUFNO_CHECK(x.dim() == 4, "spectral_conv2d input must be [B,C,H,W]");
  SAUFNO_CHECK(w.dim() == 5,
               "spectral_conv2d weight must be [Cin,Cout,2*m1,m2,2]");
  const int64_t B = x.size(0), cin = x.size(1), H = x.size(2), W = x.size(3);
  SAUFNO_CHECK(w.size(0) == cin && w.size(1) == cout &&
                   w.size(2) == 2 * m1 && w.size(3) == m2 && w.size(4) == 2,
               "spectral_conv2d weight shape mismatch");
  SAUFNO_CHECK(out.numel() == B * cout * H * W,
               "spectral_conv2d destination numel mismatch");
  const ModeMap mm = make_mode_map(H, W, m1, m2);
  const int64_t wk = mm.m2e;
  const int64_t nr = static_cast<int64_t>(mm.rows.size());

  auto widx = [m2, m1](int64_t i, int64_t o, int64_t r, int64_t c,
                       int64_t cout_) {
    return (((i * cout_ + o) * (2 * m1) + r) * m2 + c) * 2;
  };

  if (wk == 0 || nr == 0) {
    // Grid too coarse for any kept mode: the operator is identically zero.
    out.fill_(0.f);
    return;
  }

  const int64_t cs = H * wk;  // compact half-spectrum plane size

  runtime::Scratch<cfloat> xf(static_cast<std::size_t>(B * cin * cs));
  runtime::Scratch<cfloat> yf(static_cast<std::size_t>(B * cout * cs));
  rfft_2d(x.data(), xf.data(), B * cin, H, W, wk);
  yf.zero();

  // Mix channels on the kept modes: Yf[b,o,k] = sum_i W[i,o,k] Xf[b,i,k].
  // One chunk owns one (batch, kept-row) pair, so every output row is
  // written by exactly one chunk and the i-accumulation order is fixed —
  // bit-identical for any thread count. The inner c loop runs over three
  // contiguous streams (the kept columns are adjacent in both the compact
  // spectrum and the weight layout), i.e. a small complex GEMM per mode
  // row with the column index vectorized.
  const float* wp = w.data();
  const float* xfp = reinterpret_cast<const float*>(xf.data());
  float* yfp = reinterpret_cast<float*>(yf.data());
  runtime::parallel_for(0, B * nr, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t idx = i0; idx < i1; ++idx) {
      const int64_t b = idx / nr;
      const auto& [wr, kr] = mm.rows[static_cast<std::size_t>(idx % nr)];
      for (int64_t o = 0; o < cout; ++o) {
        float* yrow = yfp + 2 * (((b * cout + o) * H + kr) * wk);
        for (int64_t i = 0; i < cin; ++i) {
          const float* wrow = wp + widx(i, o, wr, 0, cout);
          const float* xrow = xfp + 2 * (((b * cin + i) * H + kr) * wk);
          for (int64_t c = 0; c < wk; ++c) {
            const float xr = xrow[2 * c], xi = xrow[2 * c + 1];
            const float ar = wrow[2 * c], ai = wrow[2 * c + 1];
            yrow[2 * c] += ar * xr - ai * xi;
            yrow[2 * c + 1] += ar * xi + ai * xr;
          }
        }
      }
    }
  });

  runtime::parallel_for(0, B * cout, 1, [&](int64_t p0, int64_t p1) {
    runtime::Scratch<cfloat> colbuf(static_cast<std::size_t>(H));
    for (int64_t p = p0; p < p1; ++p) {
      herm_prep(yf.data() + p * cs, H, wk, mm.rows, colbuf.data());
    }
  });
  irfft_2d(yf.data(), out.data(), B * cout, H, W, wk, 1.f);
}

}  // namespace fwd

Var spectral_conv2d(const Var& x, const Var& w, int64_t m1, int64_t m2,
                    int64_t cout) {
  SAUFNO_CHECK(x.value().dim() == 4, "spectral_conv2d input must be [B,C,H,W]");
  SAUFNO_CHECK(w.value().dim() == 5,
               "spectral_conv2d weight must be [Cin,Cout,2*m1,m2,2]");
  const int64_t B = x.size(0), cin = x.size(1), H = x.size(2), W = x.size(3);
  SAUFNO_CHECK(w.size(0) == cin && w.size(1) == cout &&
                   w.size(2) == 2 * m1 && w.size(3) == m2 && w.size(4) == 2,
               "spectral_conv2d weight shape mismatch");
  const ModeMap mm = make_mode_map(H, W, m1, m2);
  const int64_t wk = mm.m2e;
  const int64_t nr = static_cast<int64_t>(mm.rows.size());

  auto widx = [m2, m1](int64_t i, int64_t o, int64_t r, int64_t c,
                       int64_t cout_) {
    return (((i * cout_ + o) * (2 * m1) + r) * m2 + c) * 2;
  };

  plan::tr::Attrs attrs;
  attrs.ivals = {m1, m2, cout};

  if (wk == 0 || nr == 0) {
    // Grid too coarse for any kept mode: the operator is identically zero.
    Tensor out = Tensor::zeros({B, cout, H, W});
    if (!any_requires_grad({x, w})) {
      return plan::tr::record(plan::OpCode::kSpectralConv2d, {&x, &w},
                              Var(std::move(out)), attrs);
    }
    auto node = std::make_shared<Node>();
    node->name = "spectral_conv2d";
    node->inputs = {x.impl(), w.impl()};
    auto ix = x.impl(), iw = w.impl();
    node->backward = [=](const Tensor&) {
      accumulate_grad(ix, Tensor::zeros(ix->value.shape()));
      accumulate_grad(iw, Tensor::zeros(iw->value.shape()));
    };
    return Var::from_op(std::move(out), node);
  }

  const int64_t cs = H * wk;  // compact half-spectrum plane size

  Tensor out({B, cout, H, W});
  fwd::spectral_conv2d_into(x.value(), w.value(), m1, m2, cout, out);

  if (!any_requires_grad({x, w})) {
    return plan::tr::record(plan::OpCode::kSpectralConv2d, {&x, &w},
                            Var(std::move(out)), attrs);
  }

  auto node = std::make_shared<Node>();
  node->name = "spectral_conv2d";
  node->inputs = {x.impl(), w.impl()};
  auto ix = x.impl(), iw = w.impl();
  node->backward = [=](const Tensor& g) {
    // Adjoints on half-spectra. With R = rfft2(g) (unnormalized) and
    // N = H*W, the seed's G = IFFT2(g) equals conj(R)/N at every kept mode,
    // so:
    //   gW[i,o,k] = sum_b R[b,o,k] * conj(Xf[b,i,k]) / N
    //   gx        = Re(FFT2(z)),  z[b,i,k] = sum_o G[b,o,k] W[i,o,k]
    // and with zc = N * conj(z) = sum_o R[b,o,k] * conj(W[i,o,k]) the
    // identity Re(FFT2(z)) = N * Re(IFFT2(conj z)) makes
    // gx = irfft_2d(herm_prep(zc), scale = 1).
    runtime::Scratch<cfloat> gf(static_cast<std::size_t>(B * cout * cs));
    runtime::Scratch<cfloat> xf2(static_cast<std::size_t>(B * cin * cs));
    runtime::Scratch<cfloat> zc(static_cast<std::size_t>(B * cin * cs));
    rfft_2d(g.data(), gf.data(), B * cout, H, W, wk);
    // Recompute Xf (cheaper than caching activations across a whole epoch).
    rfft_2d(ix->value.data(), xf2.data(), B * cin, H, W, wk);
    zc.zero();

    const float* wp2 = iw->value.data();
    Tensor gw = Tensor::zeros(iw->value.shape());
    float* gwp = gw.data();
    const float* gfp = reinterpret_cast<const float*>(gf.data());
    const float* xfp = reinterpret_cast<const float*>(xf2.data());
    float* zp = reinterpret_cast<float*>(zc.data());
    // One chunk owns one kept row: its weight row wr (for gW) and its
    // spectrum row kr (for zc) are touched by no other chunk, and the b/o
    // accumulation order is fixed — bit-identical for any thread count.
    runtime::parallel_for(0, nr, 1, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const auto& [wr, kr] = mm.rows[static_cast<std::size_t>(r)];
        for (int64_t b = 0; b < B; ++b) {
          for (int64_t o = 0; o < cout; ++o) {
            const float* grow = gfp + 2 * (((b * cout + o) * H + kr) * wk);
            for (int64_t i = 0; i < cin; ++i) {
              float* zrow = zp + 2 * (((b * cin + i) * H + kr) * wk);
              const float* xrow = xfp + 2 * (((b * cin + i) * H + kr) * wk);
              const float* wrow = wp2 + widx(i, o, wr, 0, cout);
              float* gwrow = gwp + widx(i, o, wr, 0, cout);
              for (int64_t c = 0; c < wk; ++c) {
                const float gr = grow[2 * c], gi = grow[2 * c + 1];
                const float ar = wrow[2 * c], ai = wrow[2 * c + 1];
                // zc += R * conj(W)
                zrow[2 * c] += gr * ar + gi * ai;
                zrow[2 * c + 1] += gi * ar - gr * ai;
                // gW_complex += R * conj(Xf)  (scaled by 1/N below)
                const float xr = xrow[2 * c], xi = xrow[2 * c + 1];
                gwrow[2 * c] += gr * xr + gi * xi;
                gwrow[2 * c + 1] += gi * xr - gr * xi;
              }
            }
          }
        }
      }
    });
    gw.mul_(1.f / static_cast<float>(H * W));

    runtime::parallel_for(0, B * cin, 1, [&](int64_t p0, int64_t p1) {
      runtime::Scratch<cfloat> colbuf(static_cast<std::size_t>(H));
      for (int64_t p = p0; p < p1; ++p) {
        herm_prep(zc.data() + p * cs, H, wk, mm.rows, colbuf.data());
      }
    });
    Tensor gx({B, cin, H, W});
    irfft_2d(zc.data(), gx.data(), B * cin, H, W, wk, 1.f);
    accumulate_grad(ix, gx);
    accumulate_grad(iw, gw);
  };
  return Var::from_op(std::move(out), node);
}

}  // namespace ops
}  // namespace saufno
