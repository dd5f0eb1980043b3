#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>

#include "common/fault.h"
#include "obs/kernel_profile.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"
#include "tensor/simd.h"

namespace saufno {
namespace {

// Blocked-gemm geometry. MR x NR is the register tile: 6 rows x 16 columns
// is 12 fp32 accumulator vectors plus 2 B vectors plus 1 broadcast, 15 of
// the 16 YMM registers of the AVX2 path, so the k loop needs no stack
// memory (bench/check_loop_spills.py checks the disassembly). The
// portable body uses the same shape so both paths tile the matrix
// identically. KC is the K-block: one packed B panel slice (KC*NR floats =
// 32 KB) stays L2-resident while every row panel of a chunk streams over
// it.
constexpr int64_t kMR = 6;
constexpr int64_t kNR = kGemmPanelCols;
constexpr int64_t kKC = 512;

// --- microkernel: C[MR][NR] (+)= Ap(kc x MR) * Bp(kc x NR) ----------------
//
// Ap is kk-major with MR consecutive rows per k step; Bp is kk-major with NR
// consecutive columns. Per output element the additions form a single
// mul-add chain in kk order, independent of where the tile sits in the
// matrix, of zero-padding in dead lanes, and of which thread runs it — the
// load-bearing fact behind bit-identical C for every SAUFNO_NUM_THREADS.
// The finished chain is then stored into C (row stride ldc) or added to
// it: that is the fold of one K block. There is deliberately NO zero-skip
// branch: x*0 participates in the chain, so NaN/Inf in either operand
// propagates exactly as IEEE demands, and the inner loop stays branch-free
// for the vectorizer.

void micro_kernel_scalar(int64_t kc, const float* ap, const float* bp,
                         float* c, int64_t ldc, bool assign) {
  float acc[kMR * kNR] = {};
  for (int64_t kk = 0; kk < kc; ++kk, ap += kMR, bp += kNR) {
    for (int64_t r = 0; r < kMR; ++r) {
      const float a = ap[r];
      SAUFNO_IVDEP
      for (int64_t j = 0; j < kNR; ++j) acc[r * kNR + j] += a * bp[j];
    }
  }
  for (int64_t r = 0; r < kMR; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNR;
    if (assign) {
      std::memcpy(crow, arow, sizeof(float) * kNR);
    } else {
      SAUFNO_IVDEP
      for (int64_t j = 0; j < kNR; ++j) crow[j] += arow[j];
    }
  }
}

#if SAUFNO_X86_DISPATCH
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
    bool assign) {
  static_assert(kMR == 6 && kNR == 16, "the body below is the 6x16 tile");
  // The 12 accumulators are named locals, cRH = row R, columns 8H..8H+7.
  // As an array, `__m256 acc[kMR][2]`, GCC 12 at -O3 kept them in
  // registers but also stored 10 of the 12 to the stack on every kk step;
  // bench/check_loop_spills.py fails if the loop touches the stack again.
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < kc; ++kk, ap += kMR, bp += kNR) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 a = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  // The fold of this K block, after the loop: store, or add to C then store.
  __m256 acc[kMR][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                        {c30, c31}, {c40, c41}, {c50, c51}};
  for (int64_t r = 0; r < kMR; ++r) {
    float* crow = c + r * ldc;
    if (!assign) {
      acc[r][0] = _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]);
      acc[r][1] = _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]);
    }
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}
#endif

using MicroKernelFn = void (*)(int64_t, const float*, const float*, float*,
                               int64_t, bool);

MicroKernelFn pick_micro_kernel() {
#if SAUFNO_X86_DISPATCH
  if (simd::level() == simd::Level::kAvx2) return micro_kernel_avx2;
#endif
  return micro_kernel_scalar;
}

// Pack rows [0, mr) of A into one MR-tall panel, layout [kk][MR], dead rows
// zero-filled.
void pack_a_panel(const float* a, int64_t lda, int64_t mr, int64_t k,
                  float* panel) {
  for (int64_t r = 0; r < mr; ++r) {
    const float* src = a + r * lda;
    float* dst = panel + r;
    for (int64_t kk = 0; kk < k; ++kk) dst[kk * kMR] = src[kk];
  }
  for (int64_t r = mr; r < kMR; ++r) {
    float* dst = panel + r;
    for (int64_t kk = 0; kk < k; ++kk) dst[kk * kMR] = 0.f;
  }
}

}  // namespace

int64_t gemm_packed_a_floats(int64_t m, int64_t k) {
  return (m + kMR - 1) / kMR * k * kMR;
}

int64_t gemm_packed_b_floats(int64_t k, int64_t n) {
  return (n + kNR - 1) / kNR * k * kNR;
}

void gemm_pack_a(const float* a, int64_t lda, int64_t m, int64_t k,
                 float* ap) {
  for (int64_t i0 = 0; i0 < m; i0 += kMR, ap += k * kMR) {
    pack_a_panel(a + i0 * lda, lda, std::min(kMR, m - i0), k, ap);
  }
}

void gemm_pack_at(const float* s, int64_t lds, int64_t m, int64_t k,
                  float* ap) {
  for (int64_t i0 = 0; i0 < m; i0 += kMR) {
    const int64_t mr = std::min(kMR, m - i0);
    const float* src = s + i0;
    for (int64_t kk = 0; kk < k; ++kk, ap += kMR, src += lds) {
      for (int64_t r = 0; r < mr; ++r) ap[r] = src[r];
      for (int64_t r = mr; r < kMR; ++r) ap[r] = 0.f;
    }
  }
}

void gemm_pack_b(const float* b, int64_t ldb, int64_t k, int64_t n,
                 float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t jw = std::min(kNR, n - j0);
    const float* src = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, bp += kNR, src += ldb) {
      for (int64_t j = 0; j < jw; ++j) bp[j] = src[j];
      for (int64_t j = jw; j < kNR; ++j) bp[j] = 0.f;
    }
  }
}

void gemm_packed(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t m, int64_t n, int64_t k, bool accumulate) {
  const MicroKernelFn micro = pick_micro_kernel();
  const int64_t npanels = (n + kNR - 1) / kNR;
  const int64_t rpanels = (m + kMR - 1) / kMR;
  if (k <= 0 && !accumulate) {  // empty contraction: C = 0
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, sizeof(float) * static_cast<std::size_t>(n));
    }
  }
  alignas(32) float tile[kMR * kNR];
  // K-blocked accumulation: partial tiles are folded into C in fixed pc
  // order, so the per-element rounding sequence is the same for every
  // chunking and thread count.
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const bool assign = (pc == 0) && !accumulate;
    for (int64_t p = 0; p < npanels; ++p) {
      const float* bpanel = bp + (p * k + pc) * kNR;
      const int64_t j0 = p * kNR;
      const int64_t jw = std::min(kNR, n - j0);
      for (int64_t rp = 0; rp < rpanels; ++rp) {
        const float* apanel = ap + (rp * k + pc) * kMR;
        const int64_t i0 = rp * kMR;
        const int64_t mr = std::min(kMR, m - i0);
        if (mr == kMR && jw == kNR) {
          micro(kc, apanel, bpanel, c + i0 * ldc + j0, ldc, assign);
          continue;
        }
        // Edge tile: run the full tile into a buffer, fold its live part.
        micro(kc, apanel, bpanel, tile, kNR, /*assign=*/true);
        for (int64_t r = 0; r < mr; ++r) {
          float* crow = c + (i0 + r) * ldc + j0;
          const float* trow = tile + r * kNR;
          if (assign) {
            for (int64_t j = 0; j < jw; ++j) crow[j] = trow[j];
          } else {
            SAUFNO_IVDEP
            for (int64_t j = 0; j < jw; ++j) crow[j] += trow[j];
          }
        }
      }
    }
  }
}

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool accumulate) {
  // B is packed once into workspace-arena scratch and then read-only; every
  // row chunk shares it. Packing is pure data movement, so the split over
  // panels cannot perturb numerics.
  const int64_t npanels = (m > 0 && k > 0) ? (n + kNR - 1) / kNR : 0;
  runtime::Scratch<float> bpack(static_cast<std::size_t>(npanels * k * kNR));
  runtime::parallel_for(0, npanels, 1, [&](int64_t p0, int64_t p1) {
    const int64_t j0 = p0 * kNR;
    gemm_pack_b(b + j0, n, k, std::min(n, p1 * kNR) - j0,
                bpack.data() + p0 * k * kNR);
  });

  SAUFNO_FAULT_POINT("gemm");
  // SAUFNO_PROFILE_KERNELS: time every gemm's tile loop into the registry
  // (and the trace when one is live). Off by default — a relaxed load and
  // a branch.
  static obs::Histogram& prof_hist = obs::histogram("kernel.gemm_us");
  obs::KernelTimer prof_timer(prof_hist, "kernel.gemm");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Empty contraction: C (+)= 0.
    if (!accumulate) {
      std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
    }
    return;
  }

  // Row-chunk grain: MR-aligned, sized so a chunk's packed A slab stays
  // ~128 KB, but small enough that short-m gemms still split across
  // threads. Grain depends only on the shape — never on the thread count —
  // so chunk boundaries (and C) are reproducible.
  int64_t grain = 32768 / std::max<int64_t>(1, k);
  grain = std::min(grain, (m + 7) / 8);
  grain = std::max<int64_t>(kMR, (grain / kMR) * kMR);

  runtime::parallel_for(0, m, grain, [&](int64_t r0, int64_t r1) {
    runtime::Scratch<float> apack(
        static_cast<std::size_t>(gemm_packed_a_floats(r1 - r0, k)));
    gemm_pack_a(a + r0 * k, k, r1 - r0, k, apack.data());
    gemm_packed(apack.data(), bpack.data(), c + r0 * n, n, r1 - r0, n, k,
                accumulate);
  });
}

void im2col(const float* img, float* cols, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad) {
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const int64_t plane = oh * ow;
  // cols layout: [(ci*kh*kw + ki*kw + kj), (oi*ow + oj)]
  // Channels write disjoint blocks of `cols`, so the channel loop is the
  // natural deterministic parallel axis.
  runtime::parallel_for(0, c, 1, [&](int64_t c0, int64_t c1) {
  for (int64_t ci = c0; ci < c1; ++ci) {
    const float* src = img + ci * h * w;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        float* dst = cols + ((ci * kh + ki) * kw + kj) * plane;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= h) {
            std::memset(dst + oi * ow, 0,
                        sizeof(float) * static_cast<std::size_t>(ow));
            continue;
          }
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride + kj - pad;
            dst[oi * ow + oj] =
                (jj >= 0 && jj < w) ? src[ii * w + jj] : 0.f;
          }
        }
      }
    }
  }
  });
}

void im2col_packed_cols(const float* img, float* bp, int64_t c, int64_t h,
                        int64_t w, int64_t kh, int64_t kw, int64_t stride,
                        int64_t pad, int64_t col0, int64_t ncols) {
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const int64_t ck = c * kh * kw;
  // Row kk = (ci * kh + ki) * kw + kj of a panel starts at kk * NR, so one
  // tap (ki, kj) steps kh * kw * NR floats from channel to channel.
  const int64_t cstep = kh * kw * kNR;
  // The range is walked in segments that stay inside one output row and
  // one packed panel: for each tap a segment is one run of at most NR
  // floats in the panel, read from one source row with zeroed edges. Only
  // the first segment divides by ow.
  int64_t oi = col0 / ow, oj = col0 % ow;
  for (int64_t l = 0; l < ncols;) {
    const int64_t lane = l % kNR;
    const int64_t len = std::min({ow - oj, kNR - lane, ncols - l});
    float* seg = bp + l / kNR * ck * kNR + lane;
    for (int64_t ki = 0; ki < kh; ++ki) {
      const int64_t ii = oi * stride + ki - pad;
      for (int64_t kj = 0; kj < kw; ++kj) {
        float* dst = seg + (ki * kw + kj) * kNR;
        if (ii < 0 || ii >= h) {
          for (int64_t ci = 0; ci < c; ++ci, dst += cstep) {
            for (int64_t t = 0; t < len; ++t) dst[t] = 0.f;
          }
          continue;
        }
        // Source column of t is jj0 + t * stride; t in [lo, hi) is inside
        // the row.
        const int64_t jj0 = oj * stride + kj - pad;
        const int64_t lo = std::clamp<int64_t>(
            jj0 >= 0 ? 0 : (stride - 1 - jj0) / stride, 0, len);
        const int64_t hi = std::clamp<int64_t>(
            jj0 >= w ? 0 : (w - jj0 + stride - 1) / stride, lo, len);
        if (stride == 1 && lo == 0 && hi == kNR) {
          for (int64_t ci = 0; ci < c; ++ci, dst += cstep) {
            std::memcpy(dst, img + (ci * h + ii) * w + jj0,
                        sizeof(float) * kNR);
          }
          continue;
        }
        for (int64_t ci = 0; ci < c; ++ci, dst += cstep) {
          const float* src = img + (ci * h + ii) * w;
          for (int64_t t = 0; t < lo; ++t) dst[t] = 0.f;
          for (int64_t t = lo; t < hi; ++t) dst[t] = src[jj0 + t * stride];
          for (int64_t t = hi; t < len; ++t) dst[t] = 0.f;
        }
      }
    }
    l += len;
    oj += len;
    if (oj == ow) {
      oj = 0;
      ++oi;
    }
  }
  // Dead lanes of the last panel, zero-filled as gemm_pack_b leaves them.
  const int64_t live = ncols % kNR;
  if (live != 0) {
    float* last = bp + ncols / kNR * ck * kNR;
    for (int64_t kk = 0; kk < ck; ++kk, last += kNR) {
      for (int64_t j = live; j < kNR; ++j) last[j] = 0.f;
    }
  }
}

void col2im(const float* cols, float* img, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad) {
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const int64_t plane = oh * ow;
  // Scatter-adds from different (ki, kj) taps overlap within a channel but
  // never across channels, so channels are the safe parallel axis.
  runtime::parallel_for(0, c, 1, [&](int64_t c0, int64_t c1) {
  for (int64_t ci = c0; ci < c1; ++ci) {
    float* dst = img + ci * h * w;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        const float* src = cols + ((ci * kh + ki) * kw + kj) * plane;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= h) continue;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride + kj - pad;
            if (jj >= 0 && jj < w) dst[ii * w + jj] += src[oi * ow + oj];
          }
        }
      }
    }
  }
  });
}

void maxpool2d(const float* img, float* out, int64_t* argmax, int64_t c,
               int64_t h, int64_t w, int64_t kernel, int64_t stride) {
  const int64_t oh = conv_out_size(h, kernel, stride, /*pad=*/0);
  const int64_t ow = conv_out_size(w, kernel, stride, /*pad=*/0);
  runtime::parallel_for(0, c, 1, [&](int64_t c0, int64_t c1) {
  for (int64_t ci = c0; ci < c1; ++ci) {
    const float* src = img + ci * h * w;
    float* dst = out + ci * oh * ow;
    int64_t* arg = argmax + ci * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        const int64_t i0 = oi * stride, j0 = oj * stride;
        float best = src[i0 * w + j0];
        int64_t best_off = i0 * w + j0;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            const int64_t off = (i0 + ki) * w + (j0 + kj);
            if (src[off] > best) {
              best = src[off];
              best_off = off;
            }
          }
        }
        dst[oi * ow + oj] = best;
        arg[oi * ow + oj] = best_off;
      }
    }
  }
  });
}

void bilinear_resize_kernel(const float* src, float* dst, int64_t batch,
                            int64_t ih, int64_t iw, int64_t oh, int64_t ow,
                            bool adjoint) {
  // align_corners=true mapping: out index o maps to in coordinate
  // o * (in-1)/(out-1); degenerate 1-pixel axes map to 0.
  const double sy = oh > 1 ? static_cast<double>(ih - 1) / (oh - 1) : 0.0;
  const double sx = ow > 1 ? static_cast<double>(iw - 1) / (ow - 1) : 0.0;
  // Each plane (forward) / gradient plane (adjoint) is written by exactly
  // one chunk; the adjoint's scatter-adds stay within its own plane.
  const int64_t grain = std::max<int64_t>(1, 4096 / std::max<int64_t>(1, oh * ow));
  runtime::parallel_for(0, batch, grain, [&](int64_t b0, int64_t b1) {
  for (int64_t b = b0; b < b1; ++b) {
    const float* in_plane = src + b * (adjoint ? oh * ow : ih * iw);
    float* out_plane = dst + b * (adjoint ? ih * iw : oh * ow);
    for (int64_t oi = 0; oi < oh; ++oi) {
      const double fy = oi * sy;
      const int64_t y0 = static_cast<int64_t>(fy);
      const int64_t y1 = std::min(y0 + 1, ih - 1);
      const float wy1 = static_cast<float>(fy - y0);
      const float wy0 = 1.f - wy1;
      for (int64_t oj = 0; oj < ow; ++oj) {
        const double fx = oj * sx;
        const int64_t x0 = static_cast<int64_t>(fx);
        const int64_t x1 = std::min(x0 + 1, iw - 1);
        const float wx1 = static_cast<float>(fx - x0);
        const float wx0 = 1.f - wx1;
        if (!adjoint) {
          out_plane[oi * ow + oj] = wy0 * wx0 * in_plane[y0 * iw + x0] +
                                    wy0 * wx1 * in_plane[y0 * iw + x1] +
                                    wy1 * wx0 * in_plane[y1 * iw + x0] +
                                    wy1 * wx1 * in_plane[y1 * iw + x1];
        } else {
          const float g = in_plane[oi * ow + oj];
          out_plane[y0 * iw + x0] += wy0 * wx0 * g;
          out_plane[y0 * iw + x1] += wy0 * wx1 * g;
          out_plane[y1 * iw + x0] += wy1 * wx0 * g;
          out_plane[y1 * iw + x1] += wy1 * wx1 * g;
        }
      }
    }
  }
  });
}

}  // namespace saufno
