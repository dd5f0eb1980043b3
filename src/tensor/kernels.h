#pragma once

#include <cstdint>

namespace saufno {

/// Row-major sgemm: C[M,N] (+)= A[M,K] * B[K,N].
///
/// Packed, cache-blocked implementation: A row panels and B column panels
/// are packed into workspace-arena scratch, then an MR x NR register-tiled
/// microkernel (AVX2+FMA when the CPU has it — see tensor/simd.h — with a
/// portable auto-vectorizable body otherwise) runs K-blocked over the
/// panels. Dense and branch-free: NaN/Inf in either operand propagates per
/// IEEE (no data-dependent zero-skip). Row-block partitioning with a
/// thread-count-independent grain keeps C bit-identical for every
/// SAUFNO_NUM_THREADS.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool accumulate);

/// im2col for 2-D convolution with square stride-1 semantics generalized to
/// arbitrary stride/padding. Input is one image [C, H, W]; the column buffer
/// is [C*kh*kw, out_h*out_w] row-major so that conv = weight-matrix * cols.
void im2col(const float* img, float* cols, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad);

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
