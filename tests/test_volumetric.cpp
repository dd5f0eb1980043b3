#include "core/volumetric.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "fft/fft.h"
#include "testing.h"
#include "pointwise_reference.h"
#include "nn/linear.h"
#include "optim/optimizer.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

TEST(Fft3d, RoundTrip) {
  Rng rng(1);
  const int64_t b = 2, d = 3, h = 4, w = 6;
  std::vector<cfloat> x(static_cast<std::size_t>(b * d * h * w));
  for (auto& v : x) {
    v = cfloat(static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal()));
  }
  auto y = x;
  fft_3d(y.data(), b, d, h, w, false);
  fft_3d(y.data(), b, d, h, w, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-3f);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-3f);
  }
}

TEST(Fft3d, ImpulseFlatSpectrum) {
  std::vector<cfloat> x(2 * 4 * 4, cfloat(0, 0));
  x[0] = cfloat(1, 0);
  fft_3d(x.data(), 1, 2, 4, 4, false);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.f, 1e-5f);
  }
}

TEST(SpectralConv3d, ConstantVolumePassesThroughDcWeight) {
  const int64_t D = 4, H = 8, W = 8;
  Var x(Tensor::full({1, 1, D, H, W}, 2.5f), false);
  Tensor wt({1, 1, 2, 2, 1, 2});
  // Real part 1 on every kept mode slot.
  for (int64_t i = 0; i < wt.numel(); i += 2) wt.at(i) = 1.f;
  Var w(wt, false);
  Var y = ops::spectral_conv3d(x, w, 1, 1, 1, 1);
  EXPECT_TRUE(y.value().allclose(x.value(), 1e-4f, 1e-4f));
}

TEST(SpectralConv3d, LinearInInput) {
  Rng rng(2);
  Var x1(Tensor::randn({1, 2, 4, 6, 6}, rng), false);
  Var x2(Tensor::randn({1, 2, 4, 6, 6}, rng), false);
  Var w(Tensor::randn({2, 2, 2, 4, 2, 2}, rng, 0.f, 0.3f), false);
  Var y1 = ops::spectral_conv3d(x1, w, 1, 2, 2, 2);
  Var y2 = ops::spectral_conv3d(x2, w, 1, 2, 2, 2);
  Var ys = ops::spectral_conv3d(ops::add(x1, x2), w, 1, 2, 2, 2);
  EXPECT_TRUE(ys.value().allclose(add(y1.value(), y2.value()), 1e-3f, 1e-3f));
}

TEST(SpectralConv3d, ModesClampOnThinAxis) {
  // Depth 2 with modes1 = 4: the kept depth modes clamp to D/2 = 1.
  Rng rng(3);
  Var x(Tensor::randn({1, 1, 2, 8, 8}, rng), false);
  Var w(Tensor::randn({1, 1, 8, 6, 3, 2}, rng, 0.f, 0.2f), false);
  Var y = ops::spectral_conv3d(x, w, 4, 3, 3, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 8, 8}));
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.value().at(i)));
  }
}

TEST(SpectralConv3dGrad, JointGradcheck) {
  Rng rng(4);
  Var x(Tensor::randn({1, 1, 2, 4, 4}, rng), true);
  Var w(Tensor::randn({1, 1, 2, 2, 2, 2}, rng, 0.f, 0.3f), true);
  testing::expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var y = ops::spectral_conv3d(ls[0], ls[1], 1, 1, 2, 1);
        return ops::sum_all(ops::square(y));
      },
      {x, w}, /*eps=*/1e-2f, /*rtol=*/3e-2f, /*atol=*/3e-3f);
}

TEST(Fno3d, ForwardShapeAndMeshInvariance) {
  Rng rng(5);
  core::Fno3d::Config cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 1;
  cfg.width = 6;
  cfg.modes1 = 1;
  cfg.modes2 = 3;
  cfg.modes3 = 3;
  cfg.n_layers = 2;
  core::Fno3d model(cfg, rng);
  Var a(Tensor::randn({2, 2, 4, 8, 8}, rng), false);
  Var b(Tensor::randn({1, 2, 6, 12, 12}, rng), false);
  EXPECT_EQ(model.forward(a).shape(), (Shape{2, 1, 4, 8, 8}));
  EXPECT_EQ(model.forward(b).shape(), (Shape{1, 1, 6, 12, 12}));
}

TEST(Fno3d, Pointwise5dBitIdenticalToMatmulChain) {
  // Depth folds into the height axis, so the 5-D channel map is the 4-D
  // 1x1 conv, bit for bit the permute -> matmul -> add -> permute -> act
  // chain over [B, C, D*H, W].
  Rng rng(6);
  nn::PointwiseConv pw(6, 12, rng);
  Var w, b;
  for (auto& [name, v] : pw.named_parameters()) {
    (name == "weight" ? w : b) = v;
  }
  const Tensor bias = Tensor::randn({12}, rng);
  std::memcpy(b.value().data(), bias.data(), sizeof(float) * 12);
  const Var x(Tensor::randn({2, 6, 3, 9, 10}, rng));
  NoGradGuard no_grad;
  for (const Act act : {Act::kNone, Act::kGelu}) {
    const Tensor got = core::Fno3d::pointwise5d(pw, x, act).value();
    const Tensor want =
        pointwise_reference(ops::reshape(x, {2, 6, 27, 10}), w, b, act)
            .value();
    ASSERT_EQ(got.shape(), (Shape{2, 12, 3, 9, 10}));
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<std::size_t>(got.numel())),
              0)
        << "act " << static_cast<int>(act);
  }
}

TEST(Fno3d, TrainsOnSyntheticSmoothingTask) {
  // Learn a simple volumetric operator: y = local average of x along all
  // axes (a band-limited map a spectral model fits quickly).
  Rng rng(6);
  core::Fno3d::Config cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.width = 6;
  cfg.modes1 = 2;
  cfg.modes2 = 2;
  cfg.modes3 = 2;
  cfg.n_layers = 2;
  core::Fno3d model(cfg, rng);

  // Build inputs as random low-frequency volumes; target = 0.5 * x.
  const int64_t n = 6, D = 4, H = 8, W = 8;
  Rng drng(7);
  Tensor x({n, 1, D, H, W});
  for (int64_t s = 0; s < n; ++s) {
    const double a = drng.uniform(-1, 1), b = drng.uniform(-1, 1);
    for (int64_t iz = 0; iz < D; ++iz) {
      for (int64_t iy = 0; iy < H; ++iy) {
        for (int64_t ix = 0; ix < W; ++ix) {
          x.at(((s * D + iz) * H + iy) * W + ix) = static_cast<float>(
              a * std::cos(2 * M_PI * iy / H) +
              b * std::sin(2 * M_PI * ix / W));
        }
      }
    }
  }
  Tensor y = mul_scalar(x, 0.5f);

  optim::Adam opt(model.parameters(), 5e-3);
  double first = 0, last = 0;
  for (int step = 0; step < 40; ++step) {
    Var pred = model.forward(Var(x, false));
    Var loss = ops::mse_loss(pred, Var(y, false));
    opt.zero_grad();
    loss.backward();
    opt.step();
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
  }
  EXPECT_LT(last, 0.3 * first);
}

}  // namespace
}  // namespace saufno
