#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/conv_ops.h"
#include "common/rng.h"
#include "conv2d_reference.h"
#include "gemm_chain_reference.h"
#include "gemm_seed_reference.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

TEST(TensorBasics, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  // Zero initialized.
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.f);
}

TEST(TensorBasics, FromValuesAndItem) {
  Tensor t({3}, {1.f, 2.f, 3.f});
  EXPECT_EQ(t.at(1), 2.f);
  Tensor s({1}, {42.f});
  EXPECT_EQ(s.item(), 42.f);
  EXPECT_THROW(t.item(), std::runtime_error);
}

TEST(TensorBasics, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.f, 2.f, 3.f}), std::runtime_error);
}

TEST(TensorBasics, ReshapeSharesStorage) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape({3, 2});
  r.at(0) = 99.f;
  EXPECT_EQ(t.at(0), 99.f);  // same storage
  EXPECT_THROW(t.reshape({4, 2}), std::runtime_error);
}

TEST(TensorBasics, ReshapeInfersDimension) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.reshape({-1, 4}).shape(), (Shape{6, 4}));
  EXPECT_EQ(t.reshape({2, -1}).shape(), (Shape{2, 12}));
  EXPECT_THROW(t.reshape({-1, -1}), std::runtime_error);
  EXPECT_THROW(t.reshape({-1, 5}), std::runtime_error);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor t({2}, {1.f, 2.f});
  Tensor c = t.clone();
  c.at(0) = 7.f;
  EXPECT_EQ(t.at(0), 1.f);
}

TEST(TensorBasics, FillAddMul) {
  Tensor t({3});
  t.fill_(2.f);
  Tensor u({3});
  u.fill_(1.f);
  t.add_(u, 3.f);
  EXPECT_EQ(t.at(0), 5.f);
  t.mul_(0.5f);
  EXPECT_EQ(t.at(2), 2.5f);
}

TEST(TensorBasics, RandnStatistics) {
  Rng rng(5);
  Tensor t = Tensor::randn({10000}, rng);
  const float m = mean_all(t);
  EXPECT_NEAR(m, 0.f, 0.05f);
  float var = 0.f;
  for (int64_t i = 0; i < t.numel(); ++i) var += (t.at(i) - m) * (t.at(i) - m);
  var /= static_cast<float>(t.numel());
  EXPECT_NEAR(var, 1.f, 0.1f);
}

TEST(BroadcastShape, Rules) {
  EXPECT_EQ(broadcast_shape({2, 3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({2, 1}, {1, 3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({3}, {2, 3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({4, 1, 2}, {3, 1}), (Shape{4, 3, 2}));
  EXPECT_THROW(broadcast_shape({2, 3}, {4, 3}), std::runtime_error);
}

TEST(ElementwiseOps, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = add(a, b);
  EXPECT_TRUE(c.allclose(Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(ElementwiseOps, AddBroadcastRow) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = add(a, b);
  EXPECT_TRUE(c.allclose(Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(ElementwiseOps, MulBroadcastColumn) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 1}, {2, 3});
  Tensor c = mul(a, b);
  EXPECT_TRUE(c.allclose(Tensor({2, 3}, {2, 4, 6, 12, 15, 18})));
}

TEST(ElementwiseOps, DivAndSub) {
  Tensor a({2}, {8, 9});
  Tensor b({2}, {2, 3});
  EXPECT_TRUE(div(a, b).allclose(Tensor({2}, {4, 3})));
  EXPECT_TRUE(sub(a, b).allclose(Tensor({2}, {6, 6})));
}

TEST(ElementwiseOps, UnaryFunctions) {
  Tensor a({3}, {-1.f, 0.f, 2.f});
  EXPECT_TRUE(relu(a).allclose(Tensor({3}, {0.f, 0.f, 2.f})));
  EXPECT_TRUE(neg(a).allclose(Tensor({3}, {1.f, 0.f, -2.f})));
  EXPECT_TRUE(abs(a).allclose(Tensor({3}, {1.f, 0.f, 2.f})));
  Tensor e = exp(Tensor({2}, {0.f, 1.f}));
  EXPECT_NEAR(e.at(0), 1.f, 1e-6f);
  EXPECT_NEAR(e.at(1), 2.718281f, 1e-5f);
}

TEST(ElementwiseOps, GeluMatchesDefinition) {
  // GELU(x) = x * Phi(x); spot-check a few points.
  Tensor x({3}, {-1.f, 0.f, 1.f});
  Tensor g = gelu(x);
  EXPECT_NEAR(g.at(0), -0.158655f, 1e-4f);
  EXPECT_NEAR(g.at(1), 0.f, 1e-7f);
  EXPECT_NEAR(g.at(2), 0.841345f, 1e-4f);
}

TEST(ElementwiseOps, GeluGradMatchesFiniteDifference) {
  Tensor x({5}, {-2.f, -0.5f, 0.f, 0.7f, 1.9f});
  Tensor g = gelu_grad(x);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    Tensor up = x.clone(), dn = x.clone();
    up.at(i) += eps;
    dn.at(i) -= eps;
    const float num = (gelu(up).at(i) - gelu(dn).at(i)) / (2 * eps);
    EXPECT_NEAR(g.at(i), num, 1e-3f);
  }
}

TEST(ElementwiseOps, GeluSweepBitIdenticalToScalarGelu) {
  // gelu_row (eight lanes on AVX2, the scalar body otherwise) against
  // act_apply(kGelu), the per-element gelu_core, at every length 0..40 so
  // every tail length is hit, on special values in vector lanes and tails.
  // Runs at the detected SIMD level; CI runs it again under SAUFNO_SIMD=0.
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.f,    -0.f,  denorm, -denorm, 1e-40f, -1e-40f,
                            1e-8f,  -1e-8f, 3.f,   -3.f,    10.f,   -10.f,
                            88.f,   -88.f, inf,    -inf,    nan,    -nan};
  constexpr int kSpecials = sizeof(specials) / sizeof(specials[0]);
  Rng rng(41);
  for (int64_t n = 0; n <= 40; ++n) {
    for (int shift = 0; shift < kSpecials; shift += 5) {
      SCOPED_TRACE("n " + std::to_string(n) + " shift " +
                   std::to_string(shift));
      // One float of offset so the vector loads are unaligned, and one
      // spare at the end.
      std::vector<float> buf(static_cast<std::size_t>(n + 2));
      float* in = buf.data() + 1;
      for (int64_t i = 0; i < n; ++i) {
        in[i] = i % 3 == 0 ? static_cast<float>(3.0 * rng.normal())
                           : specials[(i + shift) % kSpecials];
      }
      // One spare float each so data() is never null, even at n = 0.
      std::vector<float> want(static_cast<std::size_t>(n + 1));
      for (int64_t i = 0; i < n; ++i) want[i] = act_apply(Act::kGelu, in[i]);
      const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(n);
      std::vector<float> got(static_cast<std::size_t>(n + 1));
      gelu_row(in, got.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0);
      // In place, and through the conv epilogue with a bias.
      std::vector<float> row(in, in + n + 1);
      const float bias = 0.25f;
      bias_act_row(row.data(), n, &bias, Act::kGelu);
      for (int64_t i = 0; i < n; ++i) {
        want[i] = act_apply(Act::kGelu, in[i] + bias);
      }
      EXPECT_EQ(std::memcmp(row.data(), want.data(), bytes), 0);
    }
  }
}

TEST(ElementwiseOps, FusedAddGeluBitIdenticalToScalarGelu) {
  // Both fused_add_act_into forms sweep GELU through gelu_row after the
  // sum; per element that is act_apply(kGelu, sum) with add()'s grouping.
  Rng rng(43);
  const Tensor a = Tensor::randn({3, 5, 7, 9}, rng);
  const Tensor b = Tensor::randn({3, 5, 7, 9}, rng);
  const Tensor c = Tensor::randn({3, 5, 7, 9}, rng);
  Tensor got2(a.shape()), got3(a.shape());
  fused_add_act_into(a, b, nullptr, Act::kGelu, got2);
  fused_add_act_into(a, b, &c, Act::kGelu, got3);
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float w2 = act_apply(Act::kGelu, a.at(i) + b.at(i));
    const float w3 = act_apply(Act::kGelu, (a.at(i) + b.at(i)) + c.at(i));
    ASSERT_EQ(std::memcmp(&got2.at(i), &w2, sizeof(float)), 0) << i;
    ASSERT_EQ(std::memcmp(&got3.at(i), &w3, sizeof(float)), 0) << i;
  }
}

TEST(Reductions, SumMeanMaxMin) {
  Tensor a({2, 2}, {1, -5, 3, 9});
  EXPECT_EQ(sum_all(a), 8.f);
  EXPECT_EQ(mean_all(a), 2.f);
  EXPECT_EQ(max_all(a), 9.f);
  EXPECT_EQ(min_all(a), -5.f);
}

TEST(Reductions, SumDim) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(sum_dim(a, 0, false).allclose(Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(sum_dim(a, 1, false).allclose(Tensor({2}, {6, 15})));
  EXPECT_TRUE(sum_dim(a, 1, true).allclose(Tensor({2, 1}, {6, 15})));
}

TEST(Reductions, ReduceToBroadcastAdjoint) {
  Tensor g({2, 3}, {1, 1, 1, 1, 1, 1});
  EXPECT_TRUE(reduce_to(g, {3}).allclose(Tensor({3}, {2, 2, 2})));
  EXPECT_TRUE(reduce_to(g, {2, 1}).allclose(Tensor({2, 1}, {3, 3})));
  EXPECT_TRUE(reduce_to(g, {2, 3}).allclose(g));
}

TEST(LayoutOps, Transpose2d) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(transpose2d(a).allclose(Tensor({3, 2}, {1, 4, 2, 5, 3, 6})));
}

TEST(LayoutOps, PermuteRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor p = permute(a, {2, 0, 3, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 5, 3}));
  Tensor back = permute(p, {1, 3, 0, 2});
  EXPECT_TRUE(back.allclose(a));
}

TEST(LayoutOps, SliceAndCatInverse) {
  Rng rng(4);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  Tensor s0 = slice(a, 1, 0, 2);
  Tensor s1 = slice(a, 1, 2, 2);
  EXPECT_EQ(s0.shape(), (Shape{3, 2, 5}));
  Tensor back = cat({s0, s1}, 1);
  EXPECT_TRUE(back.allclose(a));
}

TEST(LayoutOps, SliceOutOfRangeThrows) {
  Tensor a({2, 2});
  EXPECT_THROW(slice(a, 0, 1, 2), std::runtime_error);
  EXPECT_THROW(slice(a, 3, 0, 1), std::runtime_error);
}

TEST(LayoutOps, Pad2dZeroBorder) {
  Tensor a({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor p = pad2d(a, 1, 0, 0, 1);
  EXPECT_EQ(p.shape(), (Shape{1, 1, 3, 3}));
  // Row 0 is padding; column 2 is padding.
  EXPECT_EQ(p.at(0), 0.f);
  EXPECT_EQ(p.at(3), 1.f);
  EXPECT_EQ(p.at(5), 0.f);
  EXPECT_EQ(p.at(7), 4.f);
}

TEST(MatMul, Known2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(matmul(a, b).allclose(Tensor({2, 2}, {19, 22, 43, 50})));
}

TEST(MatMul, RectangularAndMismatch) {
  Tensor a({2, 3}, {1, 0, 2, 0, 1, 1});
  Tensor b({3, 1}, {1, 2, 3});
  EXPECT_TRUE(matmul(a, b).allclose(Tensor({2, 1}, {7, 5})));
  EXPECT_THROW(matmul(a, a), std::runtime_error);
}

TEST(MatMul, BatchedWithBroadcast) {
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({1, 2, 2}, {1, 0, 0, 1});  // identity, broadcast over batch
  Tensor c = bmm(a, b);
  EXPECT_TRUE(c.allclose(a));
}

TEST(Softmax, RowsSumToOneAndStable) {
  // Large magnitudes must not overflow (stability shift).
  Tensor a({2, 3}, {1000.f, 1000.f, 1000.f, -1000.f, 0.f, 1000.f});
  Tensor s = softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.f;
    for (int c = 0; c < 3; ++c) sum += s.at(r * 3 + c);
    EXPECT_NEAR(sum, 1.f, 1e-5f);
  }
  EXPECT_NEAR(s.at(0), 1.f / 3.f, 1e-5f);
  EXPECT_NEAR(s.at(5), 1.f, 1e-5f);
}

TEST(Softmax, SumsExpsInFixedEightLaneOrder) {
  // The documented order: lane j sums the exps of columns i = j (mod 8) in
  // increasing i, in double, and the 8 lanes then add left to right. n is
  // not a multiple of 8, so the scalar tail lands in lanes 0..2.
  const int64_t rows = 3, n = 1003;
  Rng rng(21);
  Tensor a = mul_scalar(Tensor::randn({rows, n}, rng), 4.f);
  Tensor s = softmax_lastdim(a);
  std::vector<float> e(static_cast<std::size_t>(n)), want(e.size());
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = a.data() + r * n;
    float mx = row[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
    simd::vexp(row, mx, e.data(), n);
    double lanes[8] = {};
    for (int64_t i = 0; i < n; ++i) lanes[i % 8] += e[static_cast<std::size_t>(i)];
    double sum = 0.0;
    for (const double lane : lanes) sum += lane;
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t i = 0; i < n; ++i) {
      want[static_cast<std::size_t>(i)] = e[static_cast<std::size_t>(i)] * inv;
    }
    EXPECT_EQ(std::memcmp(s.data() + r * n, want.data(),
                          sizeof(float) * static_cast<std::size_t>(n)),
              0)
        << "row " << r;
    // vexp_sum returns that very double.
    std::vector<float> out(e.size());
    EXPECT_EQ(simd::vexp_sum(row, mx, out.data(), n), sum) << "row " << r;
  }
  // Exps of ~2^-56 around a single 1 at column 7: a row-order sum meets
  // the 1 after 7 small terms and drops every one (each add is below half
  // an ulp of 1), while lanes 0..6 gather 15 of them before the lanes add,
  // enough to round the total up by one ulp.
  std::vector<float> x(17, -56.f * std::log(2.f));
  x[7] = 0.f;
  std::vector<float> out(x.size());
  double serial = 0.0;
  simd::vexp(x.data(), 0.f, out.data(), 17);
  for (const float v : out) serial += v;
  EXPECT_EQ(serial, 1.0);
  EXPECT_GT(simd::vexp_sum(x.data(), 0.f, out.data(), 17), 1.0);
}

TEST(Softmax, NanPropagatesAtDetectedSimdLevel) {
  // Runs at whatever level simd::level() picked, so on an AVX2 host this
  // covers the 8-wide sweep, its 1-lane tail and the single-element exp.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::exp1(nan)));
  float in[11], out[11];
  for (int i = 0; i < 11; ++i) in[i] = 0.1f * static_cast<float>(i);
  in[3] = nan;   // a lane of the vector body
  in[10] = nan;  // the scalar tail
  simd::vexp(in, 0.f, out, 11);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(std::isnan(out[i]), i == 3 || i == 10) << "lane " << i;
  }
  // One NaN score poisons its whole softmax row and no other row.
  Tensor a({2, 13});
  for (int64_t i = 0; i < a.numel(); ++i) a.at(i) = 0.05f * static_cast<float>(i);
  a.at(5) = nan;
  Tensor s = softmax_lastdim(a);
  for (int64_t j = 0; j < 13; ++j) {
    EXPECT_TRUE(std::isnan(s.at(j))) << "row 0, col " << j;
    EXPECT_TRUE(std::isfinite(s.at(13 + j))) << "row 1, col " << j;
  }
}

TEST(Resize, IdentityWhenSameSize) {
  Rng rng(6);
  Tensor a = Tensor::randn({2, 3, 4, 4}, rng);
  EXPECT_TRUE(resize_bilinear(a, 4, 4).allclose(a, 1e-5f, 1e-6f));
}

TEST(Resize, CornersExactWithAlignCorners) {
  Tensor a({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor r = resize_bilinear(a, 5, 5);
  EXPECT_NEAR(r.at(0), 1.f, 1e-6f);
  EXPECT_NEAR(r.at(4), 2.f, 1e-6f);
  EXPECT_NEAR(r.at(20), 3.f, 1e-6f);
  EXPECT_NEAR(r.at(24), 4.f, 1e-6f);
  // Center is the mean of the corners.
  EXPECT_NEAR(r.at(12), 2.5f, 1e-6f);
}

TEST(Resize, AdjointIsTransposeOfForward) {
  // <R x, y> == <x, R^T y> for random x, y — the defining property the
  // autograd rule depends on.
  Rng rng(7);
  Tensor x = Tensor::randn({1, 1, 3, 4}, rng);
  Tensor y = Tensor::randn({1, 1, 7, 5}, rng);
  Tensor rx = resize_bilinear(x, 7, 5);
  Tensor rty = resize_bilinear_adjoint(y, 3, 4);
  EXPECT_NEAR(sum_all(mul(rx, y)), sum_all(mul(x, rty)), 1e-3f);
}

TEST(Gemm, AccumulateFlag) {
  Tensor a({2, 2}, {1, 0, 0, 1});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c({2, 2}, {1, 1, 1, 1});
  gemm(a.data(), b.data(), c.data(), 2, 2, 2, /*accumulate=*/true);
  EXPECT_TRUE(c.allclose(Tensor({2, 2}, {6, 7, 8, 9})));
}

TEST(Gemm, PropagatesNanAndInfFromB) {
  // The seed kernel's `a[i,k] == 0` skip silently dropped whole columns of
  // B, so NaN/Inf there never reached C — a data-dependent result. The
  // dense kernel must honor IEEE: 0 * NaN = NaN, 0 * Inf = NaN.
  const int64_t m = 3, n = 5, k = 4;
  Tensor a = Tensor::zeros({m, k});
  a.at(0 * k + 1) = 1.f;  // row 0 touches only B row 1 (finite values)
  Tensor b({k, n});
  for (int64_t i = 0; i < b.numel(); ++i) b.at(i) = 1.f;
  b.at(2 * n + 0) = std::numeric_limits<float>::quiet_NaN();
  b.at(3 * n + 1) = std::numeric_limits<float>::infinity();
  Tensor c({m, n});
  gemm(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);
  // Every row multiplies the NaN at B[2,0] by a[i,2] (possibly 0) — NaN
  // must survive into column 0; the Inf at B[3,1] times 0 is also NaN.
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c.at(i * n + 0))) << "row " << i;
    EXPECT_TRUE(std::isnan(c.at(i * n + 1))) << "row " << i;
  }
  // Columns that only ever meet finite B values stay finite.
  EXPECT_FLOAT_EQ(c.at(0 * n + 4), 1.f);

  // The preserved seed kernel exhibits the old buggy behavior — pin it so
  // the bench baseline is honestly labeled.
  Tensor c_seed({m, n});
  gemm_seed_reference(a.data(), b.data(), c_seed.data(), m, n, k, false);
  EXPECT_FALSE(std::isnan(c_seed.at(1 * n + 0)));  // all-zero row skipped B
}

TEST(Gemm, BlockedMatchesSeedKernelOnDenseData) {
  // On dense (zero-free) random data the seed kernel is correct, so the
  // blocked kernel must agree within fp32 accumulation noise. Shapes chosen
  // to hit every edge: MR/NR-aligned, ragged tails, single row/col, and a
  // K larger than the 512-wide K-block.
  const struct { int64_t m, n, k; } shapes[] = {
      {6, 16, 8},  {12, 32, 16}, {7, 17, 5},   {1, 40, 3},  {13, 1, 9},
      {5, 9, 600}, {32, 48, 64}, {25, 100, 7}, {2, 2, 1100}};
  for (const auto& s : shapes) {
    Rng rng(0xC0FFEEULL + static_cast<std::uint64_t>(s.m * 131 + s.n));
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    // Shift away from zero so the seed zero-skip cannot fire and relative
    // comparison is well-conditioned.
    a = add_scalar(a, 3.f);
    b = add_scalar(b, 3.f);
    Tensor c_seed({s.m, s.n}), c_new({s.m, s.n});
    gemm_seed_reference(a.data(), b.data(), c_seed.data(), s.m, s.n, s.k,
                        false);
    gemm(a.data(), b.data(), c_new.data(), s.m, s.n, s.k, false);
    EXPECT_TRUE(c_new.allclose(c_seed, 1e-4f, 1e-4f * s.k))
        << "shape " << s.m << "x" << s.n << "x" << s.k;
    // accumulate=true must add on top of existing C in both kernels.
    Tensor acc_seed = c_seed.clone(), acc_new = c_new.clone();
    gemm_seed_reference(a.data(), b.data(), acc_seed.data(), s.m, s.n, s.k,
                        true);
    gemm(a.data(), b.data(), acc_new.data(), s.m, s.n, s.k, true);
    EXPECT_TRUE(acc_new.allclose(acc_seed, 1e-4f, 2e-4f * s.k))
        << "accumulate shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Gemm, EmptyKZeroesOrPreservesC) {
  Tensor a({2, 0}), b({0, 3});
  Tensor c({2, 3}, {1, 2, 3, 4, 5, 6});
  gemm(a.data(), b.data(), c.data(), 2, 3, 0, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c.at(0), 1.f);  // accumulate: C untouched
  gemm(a.data(), b.data(), c.data(), 2, 3, 0, /*accumulate=*/false);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(c.at(i), 0.f);
}

TEST(Im2Col, RoundTripAgainstDirectConvolution) {
  // conv of a 1-channel 3x3 image with a 2x2 kernel via im2col+gemm must
  // match the direct sliding-window sum.
  Tensor img({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor ker({1, 1, 2, 2}, {1, 0, 0, 1});  // picks x[i][j] + x[i+1][j+1]
  const int64_t oh = conv_out_size(3, 2, 1, 0), ow = oh;
  std::vector<float> cols(1 * 2 * 2 * oh * ow);
  im2col(img.data(), cols.data(), 1, 3, 3, 2, 2, 1, 0);
  Tensor out({oh * ow});
  gemm(ker.data(), cols.data(), out.data(), 1, oh * ow, 4, false);
  EXPECT_TRUE(out.allclose(Tensor({4}, {6, 8, 12, 14})));
}

TEST(Im2Col, PackedColumnsMatchIm2colThenPackB) {
  // Column ranges that start mid-row, cross row ends and end in a partial
  // panel (dead lanes zero-filled), at output widths 13, 40, 8 and 5 with
  // pad 1 and at stride 2 with pad 0 (ow 6).
  Rng rng(23);
  const int64_t c = 5, kh = 3, kw = 3;
  const int64_t ck = c * kh * kw;
  struct Geom {
    int64_t h, w, stride, pad;
  };
  for (const Geom g : {Geom{17, 13, 1, 1}, Geom{9, 40, 1, 1}, Geom{8, 8, 1, 1},
                       Geom{5, 5, 1, 1}, Geom{17, 13, 2, 0}}) {
    const int64_t ow = conv_out_size(g.w, kw, g.stride, g.pad);
    const int64_t plane = conv_out_size(g.h, kh, g.stride, g.pad) * ow;
    const Tensor img = Tensor::randn({c, g.h, g.w}, rng);
    Tensor cols({ck, plane});
    im2col(img.data(), cols.data(), c, g.h, g.w, kh, kw, g.stride, g.pad);
    // (first column, column count); ranges that do not fit are skipped.
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, plane},       {0, 16},         {ow - 3, 37}, {ow + 1, 2 * ow},
        {plane - 21, 21}, {plane - 1, 1},  {3, plane - 3}};
    for (const auto& [col0, ncols] : ranges) {
      if (col0 < 0 || ncols <= 0 || col0 + ncols > plane) continue;
      std::vector<float> want(
          static_cast<std::size_t>(gemm_packed_b_floats(ck, ncols)));
      std::vector<float> got(want.size(), -1.f);
      gemm_pack_b(cols.data() + col0, plane, ck, ncols, want.data());
      im2col_packed_cols(img.data(), got.data(), c, g.h, g.w, kh, kw,
                         g.stride, g.pad, col0, ncols);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), sizeof(float) * want.size()),
          0)
          << "ow " << ow << ", stride " << g.stride << ", cols [" << col0
          << ", " << col0 + ncols << ")";
    }
  }
}

TEST(Conv2dInto, BitIdenticalToIm2colGemmEpilogue) {
  // ow 64, 40, 13, 8 and 5 at pad 1, plus stride 2 with pad 0; cin 64 at
  // 3x3 makes ck = 576, which crosses the 512-float K block. cout 12 and 96
  // fill whole 6-row panels, 13 leaves a dead one. Every case runs at pools
  // 1, 2, 3 and 8, with and without bias, under each activation.
  struct Case {
    int64_t b, cin, h, w, cout, stride, pad;
  };
  const Case cases[] = {
      {3, 4, 64, 64, 12, 1, 1},  {1, 12, 40, 40, 13, 1, 1},
      {3, 64, 13, 13, 96, 1, 1}, {3, 64, 8, 8, 13, 1, 1},
      {1, 24, 5, 5, 96, 1, 1},   {3, 5, 17, 13, 12, 2, 0},
      {1, 64, 40, 40, 12, 1, 1}};
  auto& pool = runtime::ThreadPool::instance();
  const int restore = pool.num_threads();
  for (const Case& cs : cases) {
    Rng rng(static_cast<std::uint64_t>(cs.cin * 1000 + cs.w * 10 + cs.b));
    const Tensor x = Tensor::randn({cs.b, cs.cin, cs.h, cs.w}, rng);
    const Tensor w = Tensor::randn({cs.cout, cs.cin, 3, 3}, rng);
    const Tensor bias = Tensor::randn({cs.cout}, rng);
    const int64_t oh = conv_out_size(cs.h, 3, cs.stride, cs.pad);
    const int64_t ow = conv_out_size(cs.w, 3, cs.stride, cs.pad);
    for (const Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
      for (const Tensor* bp : {static_cast<const Tensor*>(nullptr), &bias}) {
        pool.resize(1);
        const Tensor want =
            conv2d_reference(x, w, bp, cs.stride, cs.pad, act);
        for (const int threads : {1, 2, 3, 8}) {
          pool.resize(threads);
          Tensor got({cs.b, cs.cout, oh, ow});
          ops::fwd::conv2d_into(x, w, bp, cs.stride, cs.pad, act, got);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                sizeof(float) *
                                    static_cast<std::size_t>(want.numel())),
                    0)
              << "B " << cs.b << ", cin " << cs.cin << ", ow " << ow
              << ", cout " << cs.cout << ", stride " << cs.stride << ", act "
              << static_cast<int>(act) << ", bias " << (bp != nullptr)
              << ", " << threads << " threads";
        }
      }
    }
  }
  pool.resize(restore);
}

TEST(Gemm, EachElementIsOneChainPerKBlock) {
  // gemm and gemm_packed against gemm_chain_reference, the per-element
  // contract of kernels.h, memcmp'd. k = 511, 512 and 513 straddle the
  // 512-wide K block and 1100 folds three blocks; 13 x 37 leaves a 1-row
  // and a 5-column edge tile beside full tiles. Runs at the detected SIMD
  // level; CI runs it again under SAUFNO_SIMD=0 and at a 3-lane pool.
  const int64_t m = 13, n = 37;
  const auto expect_same_bits = [](const float* got, const float* want,
                                   int64_t count, const std::string& what) {
    EXPECT_EQ(std::memcmp(got, want, sizeof(float) * count), 0) << what;
  };
  for (const int64_t k : {1, 12, 511, 512, 513, 1100}) {
    SCOPED_TRACE("k " + std::to_string(k));
    Rng rng(static_cast<std::uint64_t>(k));
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor c0 = Tensor::randn({m, n}, rng);
    std::vector<float> ap(static_cast<std::size_t>(gemm_packed_a_floats(m, k)));
    std::vector<float> bp(static_cast<std::size_t>(gemm_packed_b_floats(k, n)));
    gemm_pack_a(a.data(), k, m, k, ap.data());
    gemm_pack_b(b.data(), n, k, n, bp.data());
    for (const bool accumulate : {false, true}) {
      const std::string fold = accumulate ? "accumulate" : "assign";
      Tensor want = c0.clone();
      gemm_chain_reference(a.data(), b.data(), want.data(), n, m, n, k,
                           accumulate);
      Tensor got = c0.clone();
      gemm(a.data(), b.data(), got.data(), m, n, k, accumulate);
      expect_same_bits(got.data(), want.data(), m * n, "gemm, " + fold);
      got = c0.clone();
      gemm_packed(ap.data(), bp.data(), got.data(), n, m, n, k, accumulate);
      expect_same_bits(got.data(), want.data(), m * n,
                       "gemm_packed, " + fold);
    }
    // The attention scores' call: A = Kᵀ packed from K [k, m], B a query
    // block's columns of Q [k, n], read from column 5 with ldb = n wider
    // than the block, C one [m, 16] packed-B panel (ldc = 16) with 16 live
    // columns, or 12 as in a partial last panel.
    const Tensor s = Tensor::randn({k, m}, rng);
    gemm_pack_at(s.data(), m, m, k, ap.data());
    const Tensor q = Tensor::randn({k, n}, rng);
    const int64_t col0 = 5;
    for (const int64_t rows : {16, 12}) {
      gemm_pack_b(q.data() + col0, n, k, rows, bp.data());
      Tensor block({k, rows});
      for (int64_t kk = 0; kk < k; ++kk) {
        for (int64_t j = 0; j < rows; ++j) {
          block.data()[kk * rows + j] = q.data()[kk * n + col0 + j];
        }
      }
      Tensor want({m, kGemmPanelCols}), got({m, kGemmPanelCols});
      gemm_chain_reference(transpose2d(s).data(), block.data(), want.data(),
                           kGemmPanelCols, m, rows, k, false);
      gemm_packed(ap.data(), bp.data(), got.data(), kGemmPanelCols, m, rows,
                  k, false);
      expect_same_bits(got.data(), want.data(), m * kGemmPanelCols,
                       "panel, " + std::to_string(rows) + " live columns");
    }
  }
}

// Property sweep: resize adjoint identity across a grid of sizes.
class ResizeAdjointP
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ResizeAdjointP, DotProductIdentity) {
  auto [ih, iw, oh, ow] = GetParam();
  Rng rng(11);
  Tensor x = Tensor::randn({1, 2, ih, iw}, rng);
  Tensor y = Tensor::randn({1, 2, oh, ow}, rng);
  Tensor rx = resize_bilinear(x, oh, ow);
  Tensor rty = resize_bilinear_adjoint(y, ih, iw);
  EXPECT_NEAR(sum_all(mul(rx, y)), sum_all(mul(x, rty)),
              2e-3f * (1 + std::abs(sum_all(mul(rx, y)))));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ResizeAdjointP,
    ::testing::Values(std::tuple{2, 2, 4, 4}, std::tuple{4, 4, 2, 2},
                      std::tuple{3, 5, 7, 2}, std::tuple{8, 8, 16, 16},
                      std::tuple{1, 4, 3, 3}, std::tuple{5, 5, 5, 5}));

// Property sweep: broadcasting binary ops agree with manual loops.
class BroadcastP : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastP, AddMatchesManualExpansion) {
  auto [sa, sb] = GetParam();
  Rng rng(13);
  Tensor a = Tensor::randn(sa, rng);
  Tensor b = Tensor::randn(sb, rng);
  Tensor c = add(a, b);
  const Shape out = broadcast_shape(sa, sb);
  ASSERT_EQ(c.shape(), out);
  // Verify a handful of entries by explicit index math.
  const auto strides_of = [](const Shape& s, const Shape& full) {
    std::vector<int64_t> st(full.size(), 0);
    const auto cs = contiguous_strides(s);
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != 1) st[full.size() - s.size() + i] = cs[i];
    }
    return st;
  };
  const auto sta = strides_of(sa, out);
  const auto stb = strides_of(sb, out);
  const auto sto = contiguous_strides(out);
  for (int64_t lin = 0; lin < c.numel(); lin += std::max<int64_t>(1, c.numel() / 13)) {
    int64_t rem = lin, oa = 0, ob = 0;
    for (std::size_t d = 0; d < out.size(); ++d) {
      const int64_t id = rem / sto[d];
      rem %= sto[d];
      oa += id * sta[d];
      ob += id * stb[d];
    }
    EXPECT_NEAR(c.at(lin), a.at(oa) + b.at(ob), 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastP,
    ::testing::Values(std::pair<Shape, Shape>{{4, 5}, {5}},
                      std::pair<Shape, Shape>{{4, 1}, {1, 5}},
                      std::pair<Shape, Shape>{{2, 3, 4}, {3, 1}},
                      std::pair<Shape, Shape>{{1}, {3, 2, 2}},
                      std::pair<Shape, Shape>{{2, 1, 4}, {2, 3, 1}},
                      std::pair<Shape, Shape>{{6}, {6}}));

}  // namespace
}  // namespace saufno
