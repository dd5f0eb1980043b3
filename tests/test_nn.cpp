#include "nn/module.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "testing.h"
#include "pointwise_reference.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "nn/serialize.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

TEST(Linear, ShapeAndAffine) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  Var x(Tensor::randn({5, 4}, rng), false);
  Var y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
  // Leading dims flatten through.
  Var x3(Tensor::randn({2, 5, 4}, rng), false);
  EXPECT_EQ(lin.forward(x3).shape(), (Shape{2, 5, 3}));
}

TEST(Linear, ZeroInputGivesBias) {
  Rng rng(2);
  nn::Linear lin(3, 2, rng);
  Var x(Tensor::zeros({1, 3}), false);
  Var y = lin.forward(x);
  auto named = lin.named_parameters();
  Tensor bias;
  for (auto& [n, v] : named) {
    if (n == "bias") bias = v.value();
  }
  EXPECT_TRUE(y.value().reshape({2}).allclose(bias));
}

TEST(Linear, WrongLastDimThrows) {
  Rng rng(3);
  nn::Linear lin(3, 2, rng);
  Var x(Tensor::zeros({2, 4}), false);
  EXPECT_THROW(lin.forward(x), std::runtime_error);
}

TEST(Linear, NoBiasOption) {
  Rng rng(4);
  nn::Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Var x(Tensor::zeros({1, 3}), false);
  EXPECT_TRUE(lin.forward(x).value().allclose(Tensor::zeros({1, 2})));
}

TEST(PointwiseConv, ActsPerPixel) {
  Rng rng(5);
  nn::PointwiseConv pw(2, 3, rng);
  Var x(Tensor::randn({2, 2, 4, 4}, rng), false);
  Var y = pw.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
  // Per-pixel property: permuting spatial positions commutes with the op.
  Tensor xp = permute(x.value(), {0, 1, 3, 2});  // transpose H/W
  Var yp = pw.forward(Var(xp, false));
  Tensor y_t = permute(y.value(), {0, 1, 3, 2});
  EXPECT_TRUE(yp.value().allclose(y_t, 1e-4f, 1e-5f));
}

TEST(PointwiseConv, GradFlowsToWeights) {
  Rng rng(6);
  nn::PointwiseConv pw(2, 2, rng);
  Var x(Tensor::randn({1, 2, 3, 3}, rng), false);
  Var loss = ops::sum_all(ops::square(pw.forward(x)));
  loss.backward();
  for (auto& p : pw.parameters()) {
    EXPECT_GT(sum_all(abs(p.grad())), 0.f);
  }
}

Var named_param(const nn::Module& m, const std::string& name) {
  for (auto& [n, v] : m.named_parameters()) {
    if (n == name) return v;
  }
  return Var();
}

/// Overwrites a parameter with N(0, 1) draws (biases start at zero).
void set_randn(Var v, Rng& rng) {
  const Tensor r = Tensor::randn(v.shape(), rng);
  std::memcpy(v.value().data(), r.data(),
              sizeof(float) * static_cast<std::size_t>(r.numel()));
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

TEST(PointwiseConv, NoGradForwardBitIdenticalToMatmulChain) {
  // The 1x1 conv runs each output element as the matmul's one k-ordered
  // gemm chain, then the same bias add and activation expressions, so it
  // must equal the permute -> matmul -> add -> permute -> act chain bit for
  // bit, at every pool size.
  runtime::ThreadPool& pool = runtime::ThreadPool::instance();
  const int ambient = pool.num_threads();
  const std::pair<int64_t, int64_t> maps[] = {{5, 12}, {12, 12}, {12, 24},
                                              {24, 2}};
  const std::pair<int64_t, int64_t> planes[] = {{64, 64}, {40, 40}, {13, 7}};
  NoGradGuard no_grad;
  for (const auto& [cin, cout] : maps) {
    for (const bool bias : {false, true}) {
      Rng rng(static_cast<std::uint64_t>(100 * cin + cout + bias));
      nn::PointwiseConv pw(cin, cout, rng, bias);
      const Var w = named_param(pw, "weight");
      const Var b = named_param(pw, "bias");
      ASSERT_EQ(b.defined(), bias);
      if (bias) set_randn(b, rng);
      for (const auto& [h, wd] : planes) {
        for (const int64_t batch : {1, 3}) {
          const Var x(Tensor::randn({batch, cin, h, wd}, rng));
          for (const Act act : {Act::kNone, Act::kGelu}) {
            const Tensor want = pointwise_reference(x, w, b, act).value();
            for (const int threads : {1, 2, 3, 8}) {
              pool.resize(threads);
              SCOPED_TRACE(std::to_string(cin) + "->" + std::to_string(cout) +
                           " bias " + std::to_string(bias) + " [" +
                           std::to_string(batch) + ", " + std::to_string(h) +
                           "x" + std::to_string(wd) + "] act " +
                           std::to_string(static_cast<int>(act)) + " pool " +
                           std::to_string(threads));
              EXPECT_TRUE(bits_equal(pw.forward(x, act).value(), want));
            }
          }
        }
      }
    }
  }
  pool.resize(ambient);
}

TEST(PointwiseConv, TapedGradientsMatchMatmulChain) {
  // Under a tape the conv and the GELU are separate nodes; the weight and
  // bias gradients reach the [cin, cout] parameters through the view and
  // agree with the old chain's up to summation order.
  Rng rng(9);
  nn::PointwiseConv pw(5, 12, rng);
  Var w = named_param(pw, "weight");
  Var b = named_param(pw, "bias");
  set_randn(b, rng);
  Var w_ref(w.value().clone(), true);
  Var b_ref(b.value().clone(), true);
  Var x(Tensor::randn({2, 5, 6, 7}, rng), true);
  Var x_ref(x.value().clone(), true);

  ops::sum_all(ops::square(pw.forward(x, Act::kGelu))).backward();
  ops::sum_all(ops::square(pointwise_reference(x_ref, w_ref, b_ref,
                                               Act::kGelu)))
      .backward();
  testing::expect_allclose(w.grad(), w_ref.grad(), 1e-5f, 1e-5f, "weight");
  testing::expect_allclose(b.grad(), b_ref.grad(), 1e-5f, 1e-5f, "bias");
  testing::expect_allclose(x.grad(), x_ref.grad(), 1e-5f, 1e-5f, "input");
}

TEST(Conv2dModule, EndToEndGradcheck) {
  Rng rng(7);
  nn::Conv2d conv(2, 2, 3, rng, 1, 1);
  Var x(Tensor::randn({1, 2, 4, 4}, rng), true);
  auto params = conv.parameters();
  std::vector<Var> leaves = {x};
  for (auto& p : params) leaves.push_back(p);
  testing::expect_gradients_match(
      [&conv](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(conv.forward(ls[0])));
      },
      leaves);
}

TEST(ModuleTree, NamedParametersDottedPaths) {
  Rng rng(8);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Linear>(4, 8, rng));
  seq->append(std::make_shared<nn::ReLU>());
  seq->append(std::make_shared<nn::Linear>(8, 2, rng));
  auto named = seq->named_parameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[1].first, "0.bias");
  EXPECT_EQ(named[2].first, "2.weight");
  EXPECT_EQ(named[3].first, "2.bias");
  EXPECT_EQ(seq->num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(ModuleTree, ZeroGradClearsAll) {
  Rng rng(9);
  nn::Linear lin(3, 3, rng);
  Var x(Tensor::randn({2, 3}, rng), false);
  ops::sum_all(lin.forward(x)).backward();
  bool any_nonzero = false;
  for (auto& p : lin.parameters()) {
    if (sum_all(abs(p.grad())) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (auto& p : lin.parameters()) {
    EXPECT_EQ(sum_all(abs(p.grad())), 0.f);
  }
}

TEST(Sequential, AppliesInOrder) {
  Rng rng(10);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Lambda>(
      [](const Var& v) { return ops::mul_scalar(v, 2.f); }));
  seq->append(std::make_shared<nn::Lambda>(
      [](const Var& v) { return ops::add_scalar(v, 1.f); }));
  Var x(Tensor::ones({2}), false);
  // (1*2)+1 = 3, not (1+1)*2 = 4.
  EXPECT_TRUE(seq->forward(x).value().allclose(Tensor::full({2}, 3.f)));
}

TEST(Pooling, MaxPoolModuleAndUpsample) {
  Rng rng(11);
  nn::MaxPool2d pool(2);
  nn::UpsampleBilinear up(2);
  Var x(Tensor::randn({1, 2, 4, 4}, rng), false);
  EXPECT_EQ(pool.forward(x).shape(), (Shape{1, 2, 2, 2}));
  EXPECT_EQ(up.forward(x).shape(), (Shape{1, 2, 8, 8}));
}

TEST(Activations, Modules) {
  Var x(Tensor({3}, {-1.f, 0.f, 1.f}), false);
  nn::ReLU relu;
  nn::GELU gelu_m;
  nn::Tanh tanh_m;
  EXPECT_TRUE(relu.forward(x).value().allclose(Tensor({3}, {0.f, 0.f, 1.f})));
  EXPECT_NEAR(gelu_m.forward(x).value().at(2), 0.841345f, 1e-4f);
  EXPECT_NEAR(tanh_m.forward(x).value().at(0), -0.76159f, 1e-4f);
}

TEST(StateDict, RoundTripThroughMap) {
  Rng rng(12);
  nn::Linear a(4, 4, rng);
  nn::Linear b(4, 4, rng);
  Var x(Tensor::randn({2, 4}, rng), false);
  // Different init -> different outputs.
  EXPECT_FALSE(a.forward(x).value().allclose(b.forward(x).value()));
  nn::load_state_dict(b, nn::state_dict(a));
  EXPECT_TRUE(a.forward(x).value().allclose(b.forward(x).value()));
}

TEST(StateDict, StrictMissingThrowsLooseIgnores) {
  Rng rng(13);
  nn::Linear a(4, 4, rng);
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(nn::load_state_dict(a, empty, /*strict=*/true),
               std::runtime_error);
  nn::load_state_dict(a, empty, /*strict=*/false);  // no-op, no throw
}

TEST(StateDict, ShapeMismatchThrows) {
  Rng rng(14);
  nn::Linear a(4, 4, rng);
  std::map<std::string, Tensor> bad;
  bad.emplace("weight", Tensor::zeros({2, 2}));
  bad.emplace("bias", Tensor::zeros({4}));
  EXPECT_THROW(nn::load_state_dict(a, bad), std::runtime_error);
}

TEST(Checkpoint, SaveLoadPreservesForward) {
  Rng rng(15);
  auto seq = std::make_shared<nn::Sequential>();
  seq->append(std::make_shared<nn::Linear>(6, 10, rng));
  seq->append(std::make_shared<nn::GELU>());
  seq->append(std::make_shared<nn::Linear>(10, 2, rng));
  Var x(Tensor::randn({3, 6}, rng), false);
  Tensor before = seq->forward(x).value().clone();

  const std::string path = ::testing::TempDir() + "/saufno_ckpt.bin";
  nn::save_checkpoint(*seq, path);

  auto seq2 = std::make_shared<nn::Sequential>();
  Rng rng2(999);
  seq2->append(std::make_shared<nn::Linear>(6, 10, rng2));
  seq2->append(std::make_shared<nn::GELU>());
  seq2->append(std::make_shared<nn::Linear>(10, 2, rng2));
  nn::load_checkpoint(*seq2, path);
  EXPECT_TRUE(seq2->forward(x).value().allclose(before));
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFileThrows) {
  const std::string path = ::testing::TempDir() + "/saufno_bad.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  Rng rng(16);
  nn::Linear lin(2, 2, rng);
  EXPECT_THROW(nn::load_checkpoint(lin, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace saufno
