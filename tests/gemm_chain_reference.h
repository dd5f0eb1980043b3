#pragma once

// gemm's per-element contract (tensor/kernels.h), one element at a time:
// C[i, j] is one mul-add chain over k from +0 within each 512-wide K
// block, in k order, and the blocks are folded into C in order. On the
// AVX2 level each step is a fused multiply-add; on the portable level a
// multiply, then an add. gemm and gemm_packed must match it bit for bit
// for every tile position, edge tile, row stride and thread count. It is
// the exact baseline for test_tensor and bench_kernels, not part of the
// library.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd.h"

namespace saufno {

/// C[m, n] (row stride ldc) (+)= A[m, k] * B[k, n], both row-major and
/// dense.
inline void gemm_chain_reference(const float* a, const float* b, float* c,
                                 int64_t ldc, int64_t m, int64_t n, int64_t k,
                                 bool accumulate) {
  constexpr int64_t kBlock = 512;
  const bool fused = simd::level() == simd::Level::kAvx2;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float& out = c[i * ldc + j];
      if (k <= 0 && !accumulate) out = 0.f;
      for (int64_t pc = 0; pc < k; pc += kBlock) {
        float acc = 0.f;
        for (int64_t kk = pc; kk < std::min(k, pc + kBlock); ++kk) {
          const float x = a[i * k + kk], y = b[kk * n + j];
          if (fused) {
            acc = std::fma(x, y, acc);
          } else {
            const float p = x * y;
            acc = acc + p;
          }
        }
        out = (pc == 0 && !accumulate) ? acc : out + acc;
      }
    }
  }
}

}  // namespace saufno
