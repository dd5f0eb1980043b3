#pragma once

#include <cstdint>

namespace saufno {

/// Row-major sgemm: C[M,N] (+)= A[M,K] * B[K,N].
///
/// Packed, cache-blocked implementation: B is packed once into NR-wide
/// column panels (gemm_pack_b), then a parallel_for over MR-aligned row
/// chunks has each chunk pack its rows of A (gemm_pack_a) and run the
/// serial tile loop gemm_packed on them: an MR x NR register-tiled microkernel
/// (AVX2+FMA when the CPU has it — see tensor/simd.h — with a portable
/// auto-vectorizable body otherwise) K-blocked over the panels. Dense and
/// branch-free: NaN/Inf in either operand propagates per IEEE (no
/// data-dependent zero-skip). Row-block partitioning with a
/// thread-count-independent grain keeps C bit-identical for every
/// SAUFNO_NUM_THREADS.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool accumulate);

// --- packed operands ----------------------------------------------------
//
// The pieces gemm() is built from, for callers that reuse one packed
// operand across many products (the fused attention kernel packs each
// batch item's Kᵀ and V once per call as A operands, and each query
// block's columns of Q [d, N] as the B operand of the transposed scores;
// the forward conv packs its weights once and builds each chunk's columns
// with im2col_packed_cols). All are serial. Each element of gemm_packed's
// C is one mul-add chain over k in fixed order — K blocks of 512 folded
// into C in order, never reordered by the panel geometry, the caller's row
// or column split or the thread — so any product assembled from these
// pieces is bit-identical to the same product through gemm().

/// Columns per packed-B panel (the microkernel's NR): panel p of a packed
/// B [k, n] holds columns 16p..16p+15 in k * 16 consecutive floats.
constexpr int64_t kGemmPanelCols = 16;

/// Floats a packed A [m, k] occupies: ceil(m / 6) row panels of k x 6.
int64_t gemm_packed_a_floats(int64_t m, int64_t k);

/// Floats a packed B [k, n] occupies: ceil(n / 16) column panels of k x 16.
int64_t gemm_packed_b_floats(int64_t k, int64_t n);

/// Packs A [m, k] (row stride lda) into 6-row panels, layout
/// [panel][kk][6], dead rows of the last panel zero-filled.
void gemm_pack_a(const float* a, int64_t lda, int64_t m, int64_t k,
                 float* ap);

/// Packs A = Sᵀ, given S [k, m] (row stride lds), into the gemm_pack_a
/// layout: row kk of panel p is the 6 contiguous floats S[kk, 6p..6p+5].
/// Pure data movement, so the packed bits equal gemm_pack_a of a
/// materialized Sᵀ.
void gemm_pack_at(const float* s, int64_t lds, int64_t m, int64_t k,
                  float* ap);

/// Packs B [k, n] (row stride ldb) into 16-column panels, layout
/// [panel][kk][16], dead columns of the last panel zero-filled.
void gemm_pack_b(const float* b, int64_t ldb, int64_t k, int64_t n,
                 float* bp);

/// Serial tile loop: C[m, n] (row stride ldc) (+)= A * B from
/// gemm_pack_a/gemm_pack_at(.., m, k, ap) and gemm_pack_b(.., k, n, bp).
/// With n = 16 and ldc = 16, C is itself one packed-B panel of a [m, 16]
/// operand.
void gemm_packed(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t m, int64_t n, int64_t k, bool accumulate);

/// im2col for 2-D convolution with square stride-1 semantics generalized to
/// arbitrary stride/padding. Input is one image [C, H, W]; the column buffer
/// is [C*kh*kw, out_h*out_w] row-major so that conv = weight-matrix * cols.
void im2col(const float* img, float* cols, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad);

/// Columns [col0, col0 + ncols) of im2col's [C*kh*kw, out_h*out_w] buffer
/// for one image [C, H, W], written straight into the gemm_pack_b layout
/// of that column slice: the same bits as im2col then
/// gemm_pack_b(cols + col0, out_h*out_w, C*kh*kw, ncols, bp), without the
/// unpacked buffer. The range may start mid-row and cross row ends. bp
/// holds gemm_packed_b_floats(C*kh*kw, ncols) floats.
void im2col_packed_cols(const float* img, float* bp, int64_t c, int64_t h,
                        int64_t w, int64_t kh, int64_t kw, int64_t stride,
                        int64_t pad, int64_t col0, int64_t ncols);

/// Adjoint of im2col: scatter-add a column buffer back into an image
/// gradient of shape [C, H, W] (must be pre-zeroed by the caller).
void col2im(const float* cols, float* img, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad);

/// Output spatial size of a convolution/pooling window.
inline int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride,
                             int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// 2x2 (or general kxk) max pooling over one [C, H, W] image; writes pooled
/// values and the argmax linear offsets (into the H*W plane) used by the
/// backward scatter.
void maxpool2d(const float* img, float* out, int64_t* argmax, int64_t c,
               int64_t h, int64_t w, int64_t kernel, int64_t stride);

/// Bilinear resize (align_corners=true) for `batch` independent planes of
/// size [ih, iw] -> [oh, ow]. When `adjoint` is true the roles flip: `src`
/// is the [oh, ow] output-gradient and `dst` the [ih, iw] input-gradient
/// (scatter-add with the same interpolation weights).
void bilinear_resize_kernel(const float* src, float* dst, int64_t batch,
                            int64_t ih, int64_t iw, int64_t oh, int64_t ow,
                            bool adjoint);

}  // namespace saufno
