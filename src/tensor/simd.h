#pragma once

// SIMD dispatch + small vector helpers for the CPU kernel core.
//
// Portable by default: every kernel keeps a plain-C body that the compiler
// auto-vectorizes, and on x86-64 an AVX2+FMA body is additionally compiled
// via per-function target attributes (no global -mavx2, so the binary still
// runs on any x86-64) and selected once per process from cpuid.
// SAUFNO_SIMD=0 forces the portable path (A/B measurement, debugging).
//
// Determinism contract: the selected level is cached on first query and
// never changes for the process lifetime, and level choice never depends on
// the thread count — so the bit-identical-across-SAUFNO_NUM_THREADS
// guarantee is preserved. The AVX2 path's FMA contractions round
// differently than the portable path: results are bit-identical across
// runs/thread counts on the same machine+build, not across SIMD levels.

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/env.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAUFNO_X86_DISPATCH 1
#include <immintrin.h>
#else
#define SAUFNO_X86_DISPATCH 0
#endif

// Hint that a loop has no loop-carried dependence so -O3 vectorizes it even
// when aliasing cannot be proven. Semantics-preserving: it never licenses
// reassociation, only independence.
#if defined(__clang__)
#define SAUFNO_IVDEP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define SAUFNO_IVDEP _Pragma("GCC ivdep")
#else
#define SAUFNO_IVDEP
#endif

namespace saufno {
namespace simd {

enum class Level { kScalar = 0, kAvx2 = 1 };

inline Level detect_level() {
#if SAUFNO_X86_DISPATCH
  // Range-validated knob parser: malformed values ("0x", "false", trailing
  // spaces) warn and fall back to enabled instead of silently running the
  // wrong path during an A/B comparison.
  if (env_int_in_range("SAUFNO_SIMD", 1, 0, 1) == 0) return Level::kScalar;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

/// Process-wide SIMD level, detected once (first call wins; thereafter the
/// level is immutable so kernel results cannot change mid-run).
inline Level level() {
  static const Level lvl = detect_level();
  return lvl;
}

inline const char* level_name() {
  return level() == Level::kAvx2 ? "avx2+fma" : "scalar";
}

#if SAUFNO_X86_DISPATCH
__attribute__((target("avx2"))) inline float reduce_max_avx2(const float* p,
                                                             int64_t n) {
  __m256 best = _mm256_set1_ps(p[0]);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    best = _mm256_max_ps(best, _mm256_loadu_ps(p + i));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, best);
  float m = lanes[0];
  for (int j = 1; j < 8; ++j) m = lanes[j] > m ? lanes[j] : m;
  for (; i < n; ++i) m = p[i] > m ? p[i] : m;
  return m;
}

__attribute__((target("avx2"))) inline void scale_avx2(float* p, int64_t n,
                                                       float s) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(p + i, _mm256_mul_ps(_mm256_loadu_ps(p + i), vs));
  }
  for (; i < n; ++i) p[i] *= s;
}
#endif

/// max over p[0..n) (n >= 1). Max is associative/commutative, so the
/// vector reduction order cannot change the result on non-NaN data (and a
/// softmax over NaN input is already poisoned either way).
inline float reduce_max(const float* p, int64_t n) {
#if SAUFNO_X86_DISPATCH
  if (level() == Level::kAvx2) return reduce_max_avx2(p, n);
#endif
  float m = p[0];
  for (int64_t i = 1; i < n; ++i) m = p[i] > m ? p[i] : m;
  return m;
}

/// p[i] *= s — element-independent, so lane order is irrelevant.
inline void scale(float* p, int64_t n, float s) {
#if SAUFNO_X86_DISPATCH
  if (level() == Level::kAvx2) {
    scale_avx2(p, n, s);
    return;
  }
#endif
  SAUFNO_IVDEP
  for (int64_t i = 0; i < n; ++i) p[i] *= s;
}

// ---------------------------------------------------------------------------
// Polynomial expf (Cephes expf scheme, as in every SIMD math library):
// clamp, split x = n*ln2 + r with Cody-Waite two-constant ln2, degree-5
// minimax polynomial on r, scale by 2^n via exponent-bit assembly. Max
// relative error ~2e-7 — inside the golden 1e-6 gates that pin every model
// output.
//
// Bit-consistency is the load-bearing property here, not just speed. Fused
// kernels evaluate activations one element at a time while bulk sweeps go
// through vexp(), so on the AVX2 level the single-element form
// (exp_poly_fma_scalar) replays the EXACT per-lane operation sequence of
// the 8-wide body with 1-lane SSE intrinsics — same FMA contractions, same
// rounding at every step. The portable form uses plain mul/add only (no
// contraction possible on base x86-64), so portable scalar == portable
// "vector" trivially. As with the rest of this header: identical across
// runs/threads on one machine+build, not across SIMD levels.
// ---------------------------------------------------------------------------

constexpr float kExpHi = 88.02f;           // just under overflow to inf
constexpr float kExpLo = -87.33654f;       // just above underflow to 0
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpC1 = 0.693359375f;     // ln2 high (Cody-Waite)
constexpr float kExpC2 = -2.12194440e-4f;  // ln2 low
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

/// Portable expf. The clamp keeps n in [-126, 127], so the bit-assembled
/// 2^n below is always a normal float — no inf/denormal edge cases.
inline float exp_poly_portable(float x) {
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  const float n = std::nearbyintf(x * kExpLog2e);
  // Two-step reduction keeps r exact to ~2^-45 of ln2 without needing FMA.
  float r = x - n * kExpC1;
  r = r - n * kExpC2;
  const float z = r * r;
  float y = kExpP0;
  y = y * r + kExpP1;
  y = y * r + kExpP2;
  y = y * r + kExpP3;
  y = y * r + kExpP4;
  y = y * r + kExpP5;
  y = y * z + r + 1.0f;
  // A NaN x leaves n NaN, whose conversion to int is undefined; y is NaN
  // already, so any finite scale returns it.
  const std::int32_t e =
      ((n == n ? static_cast<std::int32_t>(n) : 0) + 127) << 23;
  float two_n;
  std::memcpy(&two_n, &e, sizeof(two_n));
  return y * two_n;
}

#if SAUFNO_X86_DISPATCH
__attribute__((target("avx2,fma"))) inline __m256 exp_poly_avx2(__m256 x) {
  // The bound goes first: minps/maxps return the SECOND operand when either
  // is NaN, so a NaN input stays NaN (as on the portable path) and finite
  // inputs clamp to the same bits.
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kExpLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kExpC1), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kExpC2), r);
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(e));
}

/// One-lane mirror of exp_poly_avx2: identical op sequence on SSE+FMA
/// single-lane intrinsics, so a fused kernel's per-element call produces
/// the same bits as the corresponding lane of an 8-wide vexp sweep.
__attribute__((target("avx2,fma"))) inline float exp_poly_fma_scalar(
    float xs) {
  __m128 x = _mm_set_ss(xs);
  x = _mm_min_ss(_mm_set_ss(kExpHi), x);  // bound first: NaN propagates
  x = _mm_max_ss(_mm_set_ss(kExpLo), x);
  const __m128 n = _mm_round_ss(
      x, _mm_mul_ss(x, _mm_set_ss(kExpLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m128 r = _mm_fnmadd_ss(n, _mm_set_ss(kExpC1), x);
  r = _mm_fnmadd_ss(n, _mm_set_ss(kExpC2), r);
  const __m128 z = _mm_mul_ss(r, r);
  __m128 y = _mm_set_ss(kExpP0);
  y = _mm_fmadd_ss(y, r, _mm_set_ss(kExpP1));
  y = _mm_fmadd_ss(y, r, _mm_set_ss(kExpP2));
  y = _mm_fmadd_ss(y, r, _mm_set_ss(kExpP3));
  y = _mm_fmadd_ss(y, r, _mm_set_ss(kExpP4));
  y = _mm_fmadd_ss(y, r, _mm_set_ss(kExpP5));
  y = _mm_fmadd_ss(y, z, _mm_add_ss(r, _mm_set_ss(1.0f)));
  const __m128i e = _mm_slli_epi32(
      _mm_add_epi32(_mm_cvtps_epi32(n), _mm_set1_epi32(127)), 23);
  return _mm_cvtss_f32(_mm_mul_ss(y, _mm_castsi128_ps(e)));
}

__attribute__((target("avx2,fma"))) inline void vexp_avx2(const float* in,
                                                          float bias,
                                                          float* out,
                                                          int64_t n) {
  const __m256 vb = _mm256_set1_ps(bias);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     exp_poly_avx2(_mm256_sub_ps(_mm256_loadu_ps(in + i), vb)));
  }
  for (; i < n; ++i) out[i] = exp_poly_fma_scalar(in[i] - bias);
}
#endif

/// The fixed sum order of vexp_sum: lanes[j] holds the double sum of the
/// elements i = j (mod 8) in increasing i; the lanes then add left to right.
inline double sum_lanes(const double* lanes) {
  double s = lanes[0];
  for (int j = 1; j < 8; ++j) s += lanes[j];
  return s;
}

#if SAUFNO_X86_DISPATCH
__attribute__((target("avx2,fma"))) inline double vexp_sum_avx2(
    const float* in, float bias, float* out, int64_t n) {
  const __m256 vb = _mm256_set1_ps(bias);
  __m256d lo = _mm256_setzero_pd();  // lanes 0-3
  __m256d hi = _mm256_setzero_pd();  // lanes 4-7
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e =
        exp_poly_avx2(_mm256_sub_ps(_mm256_loadu_ps(in + i), vb));
    _mm256_storeu_ps(out + i, e);
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, lo);
  _mm256_store_pd(lanes + 4, hi);
  for (int j = 0; i < n; ++i, ++j) {
    out[i] = exp_poly_fma_scalar(in[i] - bias);
    lanes[j] += out[i];
  }
  return sum_lanes(lanes);
}
#endif

/// out[i] = exp(in[i] - bias) over [0, n). `bias` is the softmax max-shift
/// (pass 0 for a plain exp sweep); folding it here keeps the subtraction in
/// the same instruction stream at both SIMD levels.
inline void vexp(const float* in, float bias, float* out, int64_t n) {
#if SAUFNO_X86_DISPATCH
  if (level() == Level::kAvx2) {
    vexp_avx2(in, bias, out, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) out[i] = exp_poly_portable(in[i] - bias);
}

/// vexp(in, bias, out, n), returning the double sum of the out values in
/// the fixed 8-lane order of sum_lanes. Eight independent add chains keep
/// the sum off the add-latency critical path, and the order is the same at
/// both SIMD levels and for every thread count.
inline double vexp_sum(const float* in, float bias, float* out, int64_t n) {
#if SAUFNO_X86_DISPATCH
  if (level() == Level::kAvx2) return vexp_sum_avx2(in, bias, out, n);
#endif
  double lanes[8] = {};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      out[i + j] = exp_poly_portable(in[i + j] - bias);
      lanes[j] += out[i + j];
    }
  }
  for (int j = 0; i < n; ++i, ++j) {
    out[i] = exp_poly_portable(in[i] - bias);
    lanes[j] += out[i];
  }
  return sum_lanes(lanes);
}

/// Single-element exp, bit-identical to the corresponding vexp lane at the
/// active SIMD level. Fused kernels MUST use this (not std::exp) wherever
/// an unfused sibling sweeps with vexp, or fusion breaks bitwise equality.
inline float exp1(float x) {
#if SAUFNO_X86_DISPATCH
  if (level() == Level::kAvx2) return exp_poly_fma_scalar(x);
#endif
  return exp_poly_portable(x);
}

}  // namespace simd
}  // namespace saufno
