#pragma once

// The seed repo's scalar i-k-j gemm, preserved verbatim as the old-vs-new
// baseline for bench_kernels and the gemm regression tests. It is not part
// of the library: nothing on the serving path may call it.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "runtime/parallel_for.h"

namespace saufno {

/// C (+)= A[m,k] * B[k,n], including the seed's data-dependent
/// `a[i,k] == 0` skip, which silently drops NaN/Inf columns of B.
inline void gemm_seed_reference(const float* a, const float* b, float* c,
                                int64_t m, int64_t n, int64_t k,
                                bool accumulate) {
  const int64_t row_cost = std::max<int64_t>(1, n * k);
  const int64_t grain = std::max<int64_t>(1, 32768 / row_cost);
  runtime::parallel_for(0, m, grain, [&](int64_t r0, int64_t r1) {
    if (!accumulate) {
      std::memset(c + r0 * n, 0,
                  sizeof(float) * static_cast<std::size_t>((r1 - r0) * n));
    }
    for (int64_t i = r0; i < r1; ++i) {
      float* crow = c + i * n;
      const float* arow = a + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        // The seed's zero-skip: 0 * NaN must be NaN, so this drops NaN/Inf
        // in B — the bug the library's gemm fixes.
        if (aik == 0.f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  });
}

}  // namespace saufno
