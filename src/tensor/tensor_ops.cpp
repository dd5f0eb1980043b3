#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/kernel_profile.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace saufno {
namespace {

/// Grain for flat elementwise loops: big enough that chunk dispatch is
/// noise, small enough that the smoke-scale tensors (tens of thousands of
/// elements) still split across threads.
constexpr int64_t kElemwiseGrain = 8192;

/// Iterate a broadcasted binary op into a preallocated destination. Shapes
/// are right-aligned; a dim of 1 broadcasts by using stride 0, exactly as
/// in numpy. This is the single implementation behind both the allocating
/// public ops and the plan executor's *_into entry points, which is what
/// makes compiled plans bit-identical to the interpreter.
template <typename F>
void broadcast_binary_into_t(const Tensor& a, const Tensor& b, Tensor& out,
                             F f) {
  SAUFNO_CHECK(out.shape() == broadcast_shape(a.shape(), b.shape()),
               "binary op destination shape mismatch: " +
                   shape_str(out.shape()));
  const Shape& out_shape = out.shape();
  const int64_t rank = static_cast<int64_t>(out_shape.size());

  // Effective strides (0 where broadcast) for both inputs, right-aligned.
  std::vector<int64_t> sa(rank, 0), sb(rank, 0);
  {
    const auto ca = contiguous_strides(a.shape());
    const auto cb = contiguous_strides(b.shape());
    const int64_t ra = a.dim(), rb = b.dim();
    for (int64_t i = 0; i < ra; ++i) {
      if (a.shape()[i] != 1) sa[rank - ra + i] = ca[i];
    }
    for (int64_t i = 0; i < rb; ++i) {
      if (b.shape()[i] != 1) sb[rank - rb + i] = cb[i];
    }
  }

  // Fast path: identical shapes -> single flat loop, split across threads
  // (each output index is written by exactly one chunk). The ivdep hint is
  // what lets -O3 vectorize through the three unproven-distinct pointers.
  if (a.shape() == b.shape()) {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = out.numel();
    runtime::parallel_for(0, n, kElemwiseGrain, [&](int64_t i0, int64_t i1) {
      SAUFNO_IVDEP
      for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i], pb[i]);
    });
    return;
  }

  // General path: odometer over the output index space.
  std::vector<int64_t> idx(rank, 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.numel();
  int64_t oa = 0, ob = 0;
  for (int64_t lin = 0; lin < n; ++lin) {
    po[lin] = f(pa[oa], pb[ob]);
    // Increment odometer from the innermost dim.
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++idx[d];
      oa += sa[d];
      ob += sb[d];
      if (idx[d] < out_shape[d]) break;
      idx[d] = 0;
      oa -= sa[d] * out_shape[d];
      ob -= sb[d] * out_shape[d];
    }
  }
}

template <typename F>
Tensor broadcast_binary(const Tensor& a, const Tensor& b, F f) {
  Tensor out(broadcast_shape(a.shape(), b.shape()));
  broadcast_binary_into_t(a, b, out, f);
  return out;
}

template <typename F>
void unary_into_t(const Tensor& a, Tensor& out, F f) {
  // Elementwise, so only the element count has to agree: the plan executor
  // may hand us a reshape-alias destination whose dims differ from `a`'s.
  SAUFNO_CHECK(out.numel() == a.numel(),
               "unary op destination numel mismatch");
  const float* p = a.data();
  float* q = out.data();
  const int64_t n = a.numel();
  runtime::parallel_for(0, n, kElemwiseGrain, [&](int64_t i0, int64_t i1) {
    SAUFNO_IVDEP
    for (int64_t i = i0; i < i1; ++i) q[i] = f(p[i]);
  });
}

template <typename F>
Tensor unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  unary_into_t(a, out, f);
  return out;
}

}  // namespace

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    SAUFNO_CHECK(da == db || da == 1 || db == 1,
                 "cannot broadcast " + shape_str(a) + " with " + shape_str(b));
    out[i] = std::max(da, db);
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x / y; });
}

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  broadcast_binary_into_t(a, b, out, [](float x, float y) { return x + y; });
}
void sub_into(const Tensor& a, const Tensor& b, Tensor& out) {
  broadcast_binary_into_t(a, b, out, [](float x, float y) { return x - y; });
}
void mul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  broadcast_binary_into_t(a, b, out, [](float x, float y) { return x * y; });
}
void div_into(const Tensor& a, const Tensor& b, Tensor& out) {
  broadcast_binary_into_t(a, b, out, [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

void add_scalar_into(const Tensor& a, float s, Tensor& out) {
  unary_into_t(a, out, [s](float x) { return x + s; });
}
void mul_scalar_into(const Tensor& a, float s, Tensor& out) {
  unary_into_t(a, out, [s](float x) { return x * s; });
}

namespace {

/// Abramowitz & Stegun 7.1.26 rational erf approximation, |err| <= 1.5e-7
/// absolute — inside the golden 1e-6 gates. Built on simd::exp1 so the
/// whole activation stack shares ONE exp implementation: a fused kernel's
/// per-element call and a bulk vexp sweep produce the same bits.
inline float erf_poly(float z) {
  const float az = std::fabs(z);
  const float t = 1.f / (1.f + 0.3275911f * az);
  float y = 1.061405429f;
  y = y * t - 1.453152027f;
  y = y * t + 1.421413741f;
  y = y * t - 0.284496736f;
  y = y * t + 0.254829592f;
  y = 1.f - y * t * simd::exp1(-az * az);
  return z < 0.f ? -y : y;
}

/// Exact GELU x * Phi(x) via erf_poly: act_apply(Act::kGelu) and the
/// portable gelu_row, and the reference whose bits gelu_row_avx2's lanes
/// replay — the fused kernels depend on all of them being bit-identical.
inline float gelu_core(float x) {
  return 0.5f * x * (1.f + erf_poly(x * 0.70710678f));
}

/// gelu_core over a row, kept out of line so that it is compiled for the
/// base target like act_apply: inlined into the AVX2 sweep, GCC picks other
/// operand orders and a NaN input comes out with the other sign bit.
__attribute__((noinline)) void gelu_row_scalar(const float* in, float* out,
                                               int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = gelu_core(in[i]);
}

#if SAUFNO_X86_DISPATCH
/// Eight lanes of gelu_core: erf_poly's operations in its order, one
/// intrinsic each, with exp_poly_avx2 (lane for lane simd::exp1) for the
/// exponential; the tail runs gelu_row_scalar. fp-contract=off keeps GCC
/// from fusing a separate mul and add into one FMA, which it does by default
/// under target("fma") and which rounds differently from gelu_core.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void
gelu_row_avx2(const float* in, float* out, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 sign = _mm256_set1_ps(-0.f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256 z = _mm256_mul_ps(x, _mm256_set1_ps(0.70710678f));
    const __m256 az = _mm256_andnot_ps(sign, z);
    const __m256 t = _mm256_div_ps(
        one,
        _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(0.3275911f), az)));
    __m256 y = _mm256_set1_ps(1.061405429f);
    y = _mm256_sub_ps(_mm256_mul_ps(y, t), _mm256_set1_ps(1.453152027f));
    y = _mm256_add_ps(_mm256_mul_ps(y, t), _mm256_set1_ps(1.421413741f));
    y = _mm256_sub_ps(_mm256_mul_ps(y, t), _mm256_set1_ps(0.284496736f));
    y = _mm256_add_ps(_mm256_mul_ps(y, t), _mm256_set1_ps(0.254829592f));
    const __m256 e =
        simd::exp_poly_avx2(_mm256_mul_ps(_mm256_xor_ps(az, sign), az));
    y = _mm256_sub_ps(one, _mm256_mul_ps(_mm256_mul_ps(y, t), e));
    y = _mm256_blendv_ps(
        y, _mm256_xor_ps(y, sign),
        _mm256_cmp_ps(z, _mm256_setzero_ps(), _CMP_LT_OQ));
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                                   _mm256_add_ps(one, y)));
  }
  gelu_row_scalar(in + i, out + i, n - i);
}
#endif

}  // namespace

void gelu_row(const float* in, float* out, int64_t n) {
#if SAUFNO_X86_DISPATCH
  if (simd::level() == simd::Level::kAvx2) {
    gelu_row_avx2(in, out, n);
    return;
  }
#endif
  gelu_row_scalar(in, out, n);
}

Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return simd::exp1(x); });
}
Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
Tensor tanh(const Tensor& a) {
  return unary(a, [](float x) { return std::tanh(x); });
}
Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0.f ? x : 0.f; });
}
Tensor sigmoid(const Tensor& a) {
  return unary(a, [](float x) { return 1.f / (1.f + simd::exp1(-x)); });
}

Tensor gelu(const Tensor& a) {
  // Exact GELU (the paper's sigma is GELU): x * Phi(x).
  Tensor out(a.shape());
  gelu_into(a, out);
  return out;
}

void exp_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return simd::exp1(x); });
}
void log_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return std::log(x); });
}
void sqrt_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return std::sqrt(x); });
}
void abs_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return std::fabs(x); });
}
void tanh_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return std::tanh(x); });
}
void relu_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return x > 0.f ? x : 0.f; });
}
void sigmoid_into(const Tensor& a, Tensor& out) {
  unary_into_t(a, out, [](float x) { return 1.f / (1.f + simd::exp1(-x)); });
}
void gelu_into(const Tensor& a, Tensor& out) {
  SAUFNO_CHECK(out.numel() == a.numel(),
               "unary op destination numel mismatch");
  const float* p = a.data();
  float* q = out.data();
  runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
                          gelu_row(p + i0, q + i0, i1 - i0);
                        });
}

Tensor gelu_grad(const Tensor& a) {
  // d/dx [x Phi(x)] = Phi(x) + x phi(x), on the same erf/exp approximations
  // as the forward so gradient checks see a consistent function.
  return unary(a, [](float x) {
    const float phi_cdf = 0.5f * (1.f + erf_poly(x * 0.70710678f));
    const float phi_pdf = 0.39894228f * simd::exp1(-0.5f * x * x);
    return phi_cdf + x * phi_pdf;
  });
}

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  return unary(a, [&f](float x) { return f(x); });
}

float act_apply(Act act, float v) {
  // Copies of the unary kernels' expressions; change them (and
  // bias_act_row's) in lockstep.
  switch (act) {
    case Act::kRelu:
      return v > 0.f ? v : 0.f;
    case Act::kGelu:
      return gelu_core(v);
    case Act::kNone:
      break;
  }
  return v;
}

void bias_act_row(float* row, int64_t n, const float* bias, Act act) {
  // The bias add rounds to float either way, so adding it in place first
  // and then sweeping the activation keeps act_apply's bits.
  if (bias != nullptr) {
    const float b = *bias;
    SAUFNO_IVDEP
    for (int64_t i = 0; i < n; ++i) row[i] += b;
  }
  switch (act) {
    case Act::kRelu:
      SAUFNO_IVDEP
      for (int64_t i = 0; i < n; ++i) row[i] = row[i] > 0.f ? row[i] : 0.f;
      break;
    case Act::kGelu:
      gelu_row(row, row, n);
      break;
    case Act::kNone:
      break;
  }
}

void fused_add_act_into(const Tensor& a, const Tensor& b, const Tensor* c,
                        Act act, Tensor& out) {
  // Per chunk, the sum, then the activation while the chunk is in cache.
  // The grouping (a + b) + c is add(add(a, b), c).
  SAUFNO_CHECK(a.shape() == b.shape() && out.shape() == a.shape() &&
                   (c == nullptr || c->shape() == a.shape()),
               "fused_add_act: operands must share one shape, got " +
                   shape_str(a.shape()) + " + " + shape_str(b.shape()) +
                   (c != nullptr ? " + " + shape_str(c->shape()) : "") +
                   " -> " + shape_str(out.shape()));
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pc = c != nullptr ? c->data() : nullptr;
  float* po = out.data();
  runtime::parallel_for(0, out.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
    if (pc != nullptr) {
      SAUFNO_IVDEP
      for (int64_t i = i0; i < i1; ++i) po[i] = (pa[i] + pb[i]) + pc[i];
    } else {
      SAUFNO_IVDEP
      for (int64_t i = i0; i < i1; ++i) po[i] = pa[i] + pb[i];
    }
    bias_act_row(po + i0, i1 - i0, nullptr, act);
  });
}

float sum_all(const Tensor& a) {
  // Double accumulation: datasets hold thousands of ~300 K temperatures and
  // a naive float accumulator loses digits that the metrics actually need.
  // One double partial per fixed-grain chunk, combined in chunk order, so
  // the sum is identical for every SAUFNO_NUM_THREADS.
  const float* p = a.data();
  const double s = runtime::parallel_sum(
      a.numel(), kElemwiseGrain, [&](int64_t i0, int64_t i1) {
        double acc = 0.0;
        for (int64_t i = i0; i < i1; ++i) acc += p[i];
        return acc;
      });
  return static_cast<float>(s);
}

float max_all(const Tensor& a) {
  SAUFNO_CHECK(a.numel() > 0, "max_all of empty tensor");
  const float* p = a.data();
  float m = p[0];
  for (int64_t i = 1; i < a.numel(); ++i) m = std::max(m, p[i]);
  return m;
}

float min_all(const Tensor& a) {
  SAUFNO_CHECK(a.numel() > 0, "min_all of empty tensor");
  const float* p = a.data();
  float m = p[0];
  for (int64_t i = 1; i < a.numel(); ++i) m = std::min(m, p[i]);
  return m;
}

float mean_all(const Tensor& a) {
  SAUFNO_CHECK(a.numel() > 0, "mean_all of empty tensor");
  return sum_all(a) / static_cast<float>(a.numel());
}

void sum_dim_into(const Tensor& a, int64_t dim, bool keepdim, Tensor& out) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  SAUFNO_CHECK(dim >= 0 && dim < rank, "sum_dim: bad dim");
  (void)keepdim;  // affects only the destination shape, fixed by the caller
  // Collapse to [outer, reduce, inner].
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= a.shape()[i];
  for (int64_t i = dim + 1; i < rank; ++i) inner *= a.shape()[i];
  const int64_t red = a.shape()[dim];
  SAUFNO_CHECK(out.numel() == outer * inner,
               "sum_dim destination numel mismatch");

  const float* p = a.data();
  float* q = out.data();
  // Parallel over output elements: each is a fully sequential reduction, so
  // the result does not depend on the thread count.
  const int64_t grain =
      std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, red));
  runtime::parallel_for(
      0, outer * inner, grain, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t o = t / inner, in = t % inner;
          double s = 0.0;
          for (int64_t r = 0; r < red; ++r) {
            s += p[(o * red + r) * inner + in];
          }
          q[o * inner + in] = static_cast<float>(s);
        }
      });
}

Tensor sum_dim(const Tensor& a, int64_t dim, bool keepdim) {
  const int64_t rank = a.dim();
  int64_t d = dim < 0 ? dim + rank : dim;
  SAUFNO_CHECK(d >= 0 && d < rank, "sum_dim: bad dim");
  Shape out_shape;
  for (int64_t i = 0; i < rank; ++i) {
    if (i == d) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.shape()[i]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  sum_dim_into(a, d, keepdim, out);
  return out;
}

Tensor reduce_to(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  Tensor cur = a;
  // 1. Sum away leading dims that the target lacks.
  while (cur.dim() > static_cast<int64_t>(target.size())) {
    cur = sum_dim(cur, 0, /*keepdim=*/false);
  }
  // 2. Sum (keepdim) dims where target has size 1 but cur does not.
  for (int64_t i = 0; i < cur.dim(); ++i) {
    if (target[static_cast<std::size_t>(i)] == 1 && cur.shape()[i] != 1) {
      cur = sum_dim(cur, i, /*keepdim=*/true);
    }
  }
  SAUFNO_CHECK(cur.shape() == target,
               "reduce_to: cannot reduce " + shape_str(a.shape()) + " to " +
                   shape_str(target));
  return cur;
}

Tensor transpose2d(const Tensor& a) {
  SAUFNO_CHECK(a.dim() == 2, "transpose2d requires a 2-D tensor");
  const int64_t m = a.shape()[0], n = a.shape()[1];
  Tensor out({n, m});
  const float* p = a.data();
  float* q = out.data();
  const int64_t grain =
      std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, n));
  runtime::parallel_for(0, m, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t j = 0; j < n; ++j) q[j * m + i] = p[i * n + j];
    }
  });
  return out;
}

void permute_into(const Tensor& a, const std::vector<int64_t>& perm,
                  Tensor& out) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(static_cast<int64_t>(perm.size()) == rank,
               "permute rank mismatch");
  Shape out_shape(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out_shape[i] = a.shape()[static_cast<std::size_t>(perm[i])];
  }
  SAUFNO_CHECK(out.shape() == out_shape,
               "permute destination shape mismatch");
  const auto in_strides = contiguous_strides(a.shape());
  std::vector<int64_t> strides(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    strides[i] = in_strides[static_cast<std::size_t>(perm[i])];
  }
  const float* p = a.data();
  float* q = out.data();
  const int64_t n = out.numel();
  // Each chunk re-seeds the odometer from its first linear index, then
  // walks sequentially; chunks cover disjoint output ranges.
  runtime::parallel_for(0, n, 4096, [&](int64_t lin0, int64_t lin1) {
    std::vector<int64_t> idx(static_cast<std::size_t>(rank), 0);
    int64_t off = 0;
    int64_t rem = lin0;
    for (int64_t d = rank - 1; d >= 0; --d) {
      idx[static_cast<std::size_t>(d)] = rem % out_shape[static_cast<std::size_t>(d)];
      rem /= out_shape[static_cast<std::size_t>(d)];
      off += idx[static_cast<std::size_t>(d)] * strides[static_cast<std::size_t>(d)];
    }
    for (int64_t lin = lin0; lin < lin1; ++lin) {
      q[lin] = p[off];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++idx[d];
        off += strides[d];
        if (idx[d] < out_shape[d]) break;
        idx[d] = 0;
        off -= strides[d] * out_shape[d];
      }
    }
  });
}

Tensor permute(const Tensor& a, const std::vector<int64_t>& perm) {
  SAUFNO_CHECK(static_cast<int64_t>(perm.size()) == a.dim(),
               "permute rank mismatch");
  Shape out_shape(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out_shape[i] = a.shape()[static_cast<std::size_t>(perm[i])];
  }
  Tensor out(out_shape);
  permute_into(a, perm, out);
  return out;
}

void slice_into(const Tensor& a, int64_t dim, int64_t start, int64_t length,
                Tensor& out) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  SAUFNO_CHECK(dim >= 0 && dim < rank, "slice: bad dim");
  SAUFNO_CHECK(start >= 0 && length >= 0 && start + length <= a.shape()[dim],
               "slice out of range on dim " + std::to_string(dim) + " of " +
                   shape_str(a.shape()));
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= a.shape()[i];
  for (int64_t i = dim + 1; i < rank; ++i) inner *= a.shape()[i];
  const int64_t d = a.shape()[dim];
  SAUFNO_CHECK(out.numel() == outer * length * inner,
               "slice destination numel mismatch");

  const float* p = a.data();
  float* q = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = p + (o * d + start) * inner;
    float* dst = q + o * length * inner;
    std::copy(src, src + length * inner, dst);
  }
}

Tensor slice(const Tensor& a, int64_t dim, int64_t start, int64_t length) {
  const int64_t rank = a.dim();
  int64_t d = dim < 0 ? dim + rank : dim;
  SAUFNO_CHECK(d >= 0 && d < rank, "slice: bad dim");
  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(d)] = length;
  Tensor out(out_shape);
  slice_into(a, d, start, length, out);
  return out;
}

void cat_into(const std::vector<Tensor>& ts, int64_t dim, Tensor& out) {
  SAUFNO_CHECK(!ts.empty(), "cat of zero tensors");
  const int64_t rank = ts[0].dim();
  if (dim < 0) dim += rank;
  int64_t cat_size = 0;
  for (const auto& t : ts) {
    SAUFNO_CHECK(t.dim() == rank, "cat: rank mismatch");
    for (int64_t i = 0; i < rank; ++i) {
      if (i != dim) {
        SAUFNO_CHECK(t.shape()[i] == ts[0].shape()[i],
                     "cat: non-cat dims must match");
      }
    }
    cat_size += t.shape()[dim];
  }
  Shape out_shape = ts[0].shape();
  out_shape[static_cast<std::size_t>(dim)] = cat_size;
  SAUFNO_CHECK(out.shape() == out_shape, "cat destination shape mismatch");

  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= out_shape[i];
  for (int64_t i = dim + 1; i < rank; ++i) inner *= out_shape[i];

  float* q = out.data();
  int64_t written = 0;
  for (const auto& t : ts) {
    const int64_t d = t.shape()[dim];
    const float* p = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(p + o * d * inner, p + (o + 1) * d * inner,
                q + (o * cat_size + written) * inner);
    }
    written += d;
  }
}

Tensor cat(const std::vector<Tensor>& ts, int64_t dim) {
  SAUFNO_CHECK(!ts.empty(), "cat of zero tensors");
  const int64_t rank = ts[0].dim();
  int64_t d = dim < 0 ? dim + rank : dim;
  int64_t cat_size = 0;
  for (const auto& t : ts) cat_size += t.shape()[d];
  Shape out_shape = ts[0].shape();
  out_shape[static_cast<std::size_t>(d)] = cat_size;
  Tensor out(out_shape);
  cat_into(ts, d, out);
  return out;
}

void pad2d_into(const Tensor& a, int64_t top, int64_t bottom, int64_t left,
                int64_t right, Tensor& out) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(rank >= 2, "pad2d needs at least 2 dims");
  const int64_t h = a.shape()[rank - 2], w = a.shape()[rank - 1];
  const int64_t oh = h + top + bottom, ow = w + left + right;
  int64_t batch = 1;
  for (int64_t i = 0; i < rank - 2; ++i) batch *= a.shape()[i];
  SAUFNO_CHECK(out.numel() == batch * oh * ow,
               "pad2d destination numel mismatch");
  const float* p = a.data();
  float* q = out.data();
  // The destination may be an uninitialized arena slot: zero the border
  // explicitly (the allocating wrapper used to rely on zero-init storage).
  std::fill(q, q + out.numel(), 0.f);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < h; ++i) {
      std::copy(p + (b * h + i) * w, p + (b * h + i + 1) * w,
                q + (b * oh + i + top) * ow + left);
    }
  }
}

Tensor pad2d(const Tensor& a, int64_t top, int64_t bottom, int64_t left,
             int64_t right) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(rank >= 2, "pad2d needs at least 2 dims");
  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(rank - 2)] += top + bottom;
  out_shape[static_cast<std::size_t>(rank - 1)] += left + right;
  Tensor out(out_shape);
  pad2d_into(a, top, bottom, left, right, out);
  return out;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  SAUFNO_CHECK(a.dim() == 2 && b.dim() == 2, "matmul requires 2-D tensors");
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  SAUFNO_CHECK(b.shape()[0] == k, "matmul inner dims mismatch: " +
                                      shape_str(a.shape()) + " x " +
                                      shape_str(b.shape()));
  SAUFNO_CHECK(out.numel() == m * n, "matmul destination numel mismatch");
  gemm(a.data(), b.data(), out.data(), m, n, k, /*accumulate=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  SAUFNO_CHECK(a.dim() == 2 && b.dim() == 2, "matmul requires 2-D tensors");
  Tensor out({a.shape()[0], b.shape()[1]});
  matmul_into(a, b, out);
  return out;
}

void bmm_into(const Tensor& a, const Tensor& b, Tensor& out) {
  SAUFNO_CHECK(a.dim() == 3 && b.dim() == 3, "bmm requires 3-D tensors");
  const int64_t ba = a.shape()[0], bb = b.shape()[0];
  SAUFNO_CHECK(ba == bb || ba == 1 || bb == 1, "bmm batch mismatch");
  const int64_t batch = std::max(ba, bb);
  const int64_t m = a.shape()[1], k = a.shape()[2], n = b.shape()[2];
  SAUFNO_CHECK(b.shape()[1] == k, "bmm inner dims mismatch");
  SAUFNO_CHECK(out.numel() == batch * m * n,
               "bmm destination numel mismatch");
  // Parallel over the batch; the nested gemm's own parallel_for decomposes
  // onto the pool too, at any nesting depth, so idle lanes pick up
  // row-blocks of in-flight gemms instead of waiting. Chunk boundaries at
  // both levels depend only on shapes, so results stay bit-identical. With
  // batch == 1 the gemm row-block parallelism takes over entirely.
  runtime::parallel_for(0, batch, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* pa = a.data() + (ba == 1 ? 0 : i) * m * k;
      const float* pb = b.data() + (bb == 1 ? 0 : i) * k * n;
      gemm(pa, pb, out.data() + i * m * n, m, n, k, /*accumulate=*/false);
    }
  });
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  SAUFNO_CHECK(a.dim() == 3 && b.dim() == 3, "bmm requires 3-D tensors");
  const int64_t batch = std::max(a.shape()[0], b.shape()[0]);
  Tensor out({batch, a.shape()[1], b.shape()[2]});
  bmm_into(a, b, out);
  return out;
}

namespace {

/// One softmax row: `scale != 1` first materializes row * scale into `orow`
/// with the exact mul_scalar expression, then the standard max/exp/sum/scale
/// sequence runs on `orow` — so the scaled form is bit-identical to
/// mul_scalar followed by softmax. `row` may equal `orow` (in place).
void softmax_row(const float* row, float* orow, int64_t n, bool scaled,
                 float scale) {
  if (scaled) {
    SAUFNO_IVDEP
    for (int64_t i = 0; i < n; ++i) orow[i] = row[i] * scale;
    row = orow;
  }
  // Max, exp, and rescale run through the SIMD helpers (max is
  // associative, exp and scale are per-element, so lane order cannot
  // change the result). The exps are summed in double during the exp
  // sweep, in vexp_sum's fixed 8-lane order — that order is part of the
  // determinism contract.
  const float mx = simd::reduce_max(row, n);
  const double s = simd::vexp_sum(row, mx, orow, n);
  simd::scale(orow, n, static_cast<float>(1.0 / s));
}

void softmax_rows_into(const Tensor& a, bool scaled, float scale,
                       Tensor& out) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(rank >= 1, "softmax of scalar");
  const int64_t n = a.shape()[rank - 1];
  const int64_t rows = a.numel() / n;
  SAUFNO_CHECK(out.numel() == a.numel(),
               "softmax destination numel mismatch");
  const float* p = a.data();
  float* q = out.data();
  const int64_t grain =
      std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, n));
  runtime::parallel_for(0, rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      softmax_row(p + r * n, q + r * n, n, scaled, scale);
    }
  });
}

/// Query rows per attention block: the block's packed Pᵀ, kAttnRows / 16
/// panels of [N, 16], is the only N-sized per-lane temporary (1 MB at
/// N = 4096).
constexpr int64_t kAttnRows = 64;

// Softmax down the 16 columns of one packed [n, 16] Pᵀ panel in place:
// column q holds query q's scores over the n keys, and leaves as
// softmax_row(scores, .., scaled, scale) would leave that row. Per column
// every float operation is softmax_row's, in its order, at both SIMD
// levels: the max of x * scale in reduce_max's order, exp(x * scale - max)
// summed in double in vexp_sum's order (lane = key mod 8, the lanes added
// left to right by sum_lanes), then one multiply by (float)(1 / sum). So
// the panel is bit-identical to the row softmax followed by gemm_pack_bt.
// fp-contract=off keeps the scale multiply and the max subtract two
// roundings, as they are in softmax_row; under target("fma") GCC would
// fuse them into one.

__attribute__((optimize("fp-contract=off"))) void softmax_panel_portable(
    float* p, int64_t n, float scale) {
  constexpr int64_t kW = kGemmPanelCols;
  float mx[kW];
  for (int64_t q = 0; q < kW; ++q) mx[q] = p[q] * scale;
  for (int64_t j = 1; j < n; ++j) {
    const float* row = p + j * kW;
    for (int64_t q = 0; q < kW; ++q) {
      const float x = row[q] * scale;
      mx[q] = x > mx[q] ? x : mx[q];
    }
  }
  double sums[8][kW] = {};  // [key mod 8][query]
  for (int64_t j = 0; j < n; ++j) {
    float* row = p + j * kW;
    double* s = sums[j % 8];
    for (int64_t q = 0; q < kW; ++q) {
      row[q] = simd::exp_poly_portable(row[q] * scale - mx[q]);
      s[q] += row[q];
    }
  }
  float inv[kW];
  for (int64_t q = 0; q < kW; ++q) {
    double lanes[8];
    for (int l = 0; l < 8; ++l) lanes[l] = sums[l][q];
    inv[q] = static_cast<float>(1.0 / simd::sum_lanes(lanes));
  }
  for (int64_t j = 0; j < n; ++j) {
    float* row = p + j * kW;
    for (int64_t q = 0; q < kW; ++q) row[q] *= inv[q];
  }
}

#if SAUFNO_X86_DISPATCH
/// softmax_panel_portable on eight queries per vector, with
/// reduce_max_avx2's order for the max: eight running maxima (keys
/// j = l mod 8) seeded with key 0, folded lane 0 to 7, then the tail keys
/// — the order that decides which NaN or signed zero a column keeps.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"))) void
softmax_panel_avx2(float* p, int64_t n, float scale) {
  constexpr int64_t kW = kGemmPanelCols;
  const __m256 vs = _mm256_set1_ps(scale);
  const auto scaled = [&](const float* x) {
    return _mm256_mul_ps(_mm256_loadu_ps(x), vs);
  };
  __m256 mx[2];
  for (int64_t h = 0; h < 2; ++h) {
    const float* col = p + 8 * h;
    __m256 best[8];
    for (int l = 0; l < 8; ++l) best[l] = scaled(col);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      for (int l = 0; l < 8; ++l) {
        best[l] = _mm256_max_ps(best[l], scaled(col + (j + l) * kW));
      }
    }
    __m256 m = best[0];
    for (int l = 1; l < 8; ++l) m = _mm256_max_ps(best[l], m);
    for (; j < n; ++j) m = _mm256_max_ps(scaled(col + j * kW), m);
    mx[h] = m;
  }
  alignas(32) double sums[8][kW] = {};  // [key mod 8][query]
  for (int64_t j = 0; j < n; ++j) {
    float* row = p + j * kW;
    double* s = sums[j % 8];
    for (int64_t h = 0; h < 2; ++h) {
      const __m256 e = simd::exp_poly_avx2(
          _mm256_sub_ps(scaled(row + 8 * h), mx[h]));
      _mm256_storeu_ps(row + 8 * h, e);
      double* sh = s + 8 * h;
      _mm256_store_pd(sh, _mm256_add_pd(_mm256_load_pd(sh),
                                        _mm256_cvtps_pd(
                                            _mm256_castps256_ps128(e))));
      _mm256_store_pd(sh + 4, _mm256_add_pd(_mm256_load_pd(sh + 4),
                                            _mm256_cvtps_pd(
                                                _mm256_extractf128_ps(e, 1))));
    }
  }
  alignas(32) float inv[kW];
  for (int64_t q = 0; q < kW; ++q) {
    double lanes[8];
    for (int l = 0; l < 8; ++l) lanes[l] = sums[l][q];
    inv[q] = static_cast<float>(1.0 / simd::sum_lanes(lanes));
  }
  const __m256 inv0 = _mm256_load_ps(inv), inv1 = _mm256_load_ps(inv + 8);
  for (int64_t j = 0; j < n; ++j) {
    float* row = p + j * kW;
    _mm256_storeu_ps(row, _mm256_mul_ps(_mm256_loadu_ps(row), inv0));
    _mm256_storeu_ps(row + 8, _mm256_mul_ps(_mm256_loadu_ps(row + 8), inv1));
  }
}
#endif

void softmax_panel(float* p, int64_t n, float scale) {
#if SAUFNO_X86_DISPATCH
  if (simd::level() == simd::Level::kAvx2) {
    softmax_panel_avx2(p, n, scale);
    return;
  }
#endif
  softmax_panel_portable(p, n, scale);
}

}  // namespace

void softmax_lastdim_into(const Tensor& a, Tensor& out) {
  softmax_rows_into(a, /*scaled=*/false, 1.f, out);
}

void scaled_softmax_lastdim_into(const Tensor& a, float scale, Tensor& out) {
  softmax_rows_into(a, /*scaled=*/true, scale, out);
}

void attention_into(const Tensor& q, const Tensor& k, const Tensor& v,
                    float scale, Tensor& out) {
  SAUFNO_CHECK(q.dim() == 3 && k.dim() == 3 && v.dim() == 3,
               "attention requires 3-D q, k, v");
  const int64_t batch = q.shape()[0], n = q.shape()[1], d = q.shape()[2];
  const int64_t c = v.shape()[1];
  SAUFNO_CHECK(k.shape() == (Shape{batch, d, n}) && v.shape()[0] == batch &&
                   v.shape()[2] == n,
               "attention shape mismatch: q " + shape_str(q.shape()) +
                   ", k " + shape_str(k.shape()) + ", v " +
                   shape_str(v.shape()));
  SAUFNO_CHECK(out.numel() == batch * c * n,
               "attention destination numel mismatch");
  static obs::Histogram& prof_hist = obs::histogram("kernel.attention_us");
  obs::KernelTimer prof_timer(prof_hist, "kernel.attention");
  if (batch == 0 || n == 0 || c == 0) return;

  // Each batch item's Kᵀ (the A operand of the transposed scores gemm) and
  // V (the A operand of the mix gemm) is packed once per call and then
  // shared read-only by all of that item's query blocks.
  const int64_t kp_floats = gemm_packed_a_floats(n, d);
  const int64_t vp_floats = gemm_packed_a_floats(c, n);
  runtime::Scratch<float> kp(static_cast<std::size_t>(batch * kp_floats));
  runtime::Scratch<float> vp(static_cast<std::size_t>(batch * vp_floats));
  runtime::parallel_for(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      gemm_pack_at(k.data() + b * d * n, n, n, d, kp.data() + b * kp_floats);
      gemm_pack_a(v.data() + b * c * n, n, c, n, vp.data() + b * vp_floats);
    }
  });

  // One chunk per (batch, query block), all of its gemms serial. The
  // scores come out transposed, Sᵀ = Kᵀ Qᵀ, one 16-query panel at a time
  // with ldc = 16, which is the packed-B layout the mix product V Pᵀ
  // reads: the softmax runs down each panel's columns in place and the
  // panels feed the mix as they stand. Each step is the composed chain's
  // own arithmetic on a subset: every score is gemm(q, k)'s k-ordered chain
  // (its two factors swapped, which a product never sees), each column's
  // softmax is the scaled softmax of that query's row, and the mix is
  // bmm(v, permute(P))'s own product restricted to the block's output
  // columns, stored in place into [B, C, N]. So the result is bit-identical
  // to bmm -> scaled softmax -> permute -> bmm for every block size and
  // thread count, with kAttnRows * n floats of per-lane scratch instead of
  // [batch, n, n].
  const int64_t blocks = (n + kAttnRows - 1) / kAttnRows;
  const int64_t panel = gemm_packed_b_floats(n, kGemmPanelCols);
  runtime::parallel_for(0, batch * blocks, 1, [&](int64_t t0, int64_t t1) {
    runtime::Scratch<float> qp(
        static_cast<std::size_t>(gemm_packed_b_floats(d, kAttnRows)));
    runtime::Scratch<float> pt(static_cast<std::size_t>(kAttnRows * n));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t b = t / blocks;
      const int64_t i0 = (t % blocks) * kAttnRows;
      const int64_t rows = std::min(kAttnRows, n - i0);
      gemm_pack_bt(q.data() + (b * n + i0) * d, d, rows, d, qp.data());
      for (int64_t r0 = 0; r0 < rows; r0 += kGemmPanelCols) {
        float* pp = pt.data() + r0 / kGemmPanelCols * panel;
        gemm_packed(kp.data() + b * kp_floats, qp.data() + r0 * d, pp,
                    kGemmPanelCols, n, kGemmPanelCols, d,
                    /*accumulate=*/false);
        softmax_panel(pp, n, scale);
      }
      gemm_packed(vp.data() + b * vp_floats, pt.data(),
                  out.data() + b * c * n + i0, n, c, rows, n,
                  /*accumulate=*/false);
    }
  });
}

Tensor softmax_lastdim(const Tensor& a) {
  Tensor out(a.shape());
  softmax_lastdim_into(a, out);
  return out;
}

void resize_bilinear_into(const Tensor& a, int64_t oh, int64_t ow,
                          Tensor& out) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(rank >= 2, "resize_bilinear needs >= 2 dims");
  const int64_t ih = a.shape()[rank - 2], iw = a.shape()[rank - 1];
  int64_t batch = 1;
  for (int64_t i = 0; i < rank - 2; ++i) batch *= a.shape()[i];
  SAUFNO_CHECK(out.numel() == batch * oh * ow,
               "resize_bilinear destination numel mismatch");
  bilinear_resize_kernel(a.data(), out.data(), batch, ih, iw, oh, ow,
                         /*adjoint=*/false);
}

Tensor resize_bilinear(const Tensor& a, int64_t oh, int64_t ow) {
  const int64_t rank = a.dim();
  SAUFNO_CHECK(rank >= 2, "resize_bilinear needs >= 2 dims");
  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(rank - 2)] = oh;
  out_shape[static_cast<std::size_t>(rank - 1)] = ow;
  Tensor out(out_shape);
  resize_bilinear_into(a, oh, ow, out);
  return out;
}

Tensor resize_bilinear_adjoint(const Tensor& grad_out, int64_t ih,
                               int64_t iw) {
  const int64_t rank = grad_out.dim();
  SAUFNO_CHECK(rank >= 2, "resize_bilinear_adjoint needs >= 2 dims");
  const int64_t oh = grad_out.shape()[rank - 2],
                ow = grad_out.shape()[rank - 1];
  int64_t batch = 1;
  for (int64_t i = 0; i < rank - 2; ++i) batch *= grad_out.shape()[i];
  Shape in_shape = grad_out.shape();
  in_shape[static_cast<std::size_t>(rank - 2)] = ih;
  in_shape[static_cast<std::size_t>(rank - 1)] = iw;
  Tensor out(in_shape);
  bilinear_resize_kernel(grad_out.data(), out.data(), batch, ih, iw, oh, ow,
                         /*adjoint=*/true);
  return out;
}

}  // namespace saufno
