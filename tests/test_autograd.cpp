#include "autograd/ops.h"

#include <gtest/gtest.h>

#include "testing.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

using testing::expect_gradients_match;

Var leaf(Shape s, Rng& rng) {
  return Var(Tensor::randn(std::move(s), rng), /*requires_grad=*/true);
}

TEST(NoGradMode, GuardSkipsTapeConstruction) {
  Rng rng(99);
  Var a = leaf({3, 3}, rng);
  {
    NoGradGuard no_grad;
    EXPECT_FALSE(GradMode::enabled());
    // As in torch.no_grad(): the leaf keeps its flag, only recording stops.
    EXPECT_TRUE(a.requires_grad());
    Var y = ops::gelu(ops::add(ops::mul(a, a), a));
    // No graph nodes recorded anywhere on the chain.
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.impl()->node, nullptr);
  }
  // Guard is scoped: recording resumes and values still match.
  EXPECT_TRUE(GradMode::enabled());
  Var z = ops::mul(a, a);
  EXPECT_TRUE(z.requires_grad());
  EXPECT_NE(z.impl()->node, nullptr);
}

TEST(NoGradMode, ModelsConstructUnderGuard) {
  // register_parameter checks requires_grad(); building a model inside a
  // serving scope (NoGradGuard) must still work.
  NoGradGuard no_grad;
  auto model = train::make_model("SAU-FNO", 3, 1, /*seed=*/5);
  EXPECT_GT(model->num_parameters(), 0);
  Rng rng(6);
  Var out = model->forward(Var(Tensor::randn({1, 3, 8, 8}, rng)));
  EXPECT_FALSE(out.requires_grad());
  EXPECT_EQ(out.impl()->node, nullptr);
}

TEST(NoGradMode, GuardNestsAndRestores) {
  EXPECT_TRUE(GradMode::enabled());
  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradMode::enabled());
    }
    EXPECT_FALSE(GradMode::enabled());  // inner restored outer's "disabled"
  }
  EXPECT_TRUE(GradMode::enabled());
}

TEST(NoGradMode, ValuesMatchGradModeValues) {
  Rng rng(100);
  Var a = leaf({4, 4}, rng);
  Var with_grad = ops::tanh(ops::matmul(a, a));
  Tensor without;
  {
    NoGradGuard no_grad;
    without = ops::tanh(ops::matmul(a, a)).value();
  }
  EXPECT_TRUE(without.allclose(with_grad.value(), 0.f, 0.f));
}

TEST(AutogradCore, BackwardRequiresScalar) {
  Rng rng(1);
  Var a = leaf({2, 2}, rng);
  Var b = ops::add(a, a);
  EXPECT_THROW(b.backward(), std::runtime_error);
}

TEST(AutogradCore, LeafWithoutGradGetsNone) {
  Rng rng(2);
  Var a(Tensor::randn({3}, rng), /*requires_grad=*/false);
  Var b = leaf({3}, rng);
  Var loss = ops::sum_all(ops::mul(a, b));
  loss.backward();
  EXPECT_TRUE(b.grad().allclose(a.value()));
  // Non-grad leaf: grad() returns zeros and no graph was recorded for it.
  EXPECT_TRUE(a.grad().allclose(Tensor::zeros({3})));
}

TEST(AutogradCore, GradAccumulatesAcrossUses) {
  Rng rng(3);
  Var a = leaf({4}, rng);
  // loss = sum(a) + sum(a) -> da = 2.
  Var loss = ops::add(ops::sum_all(a), ops::sum_all(a));
  loss.backward();
  EXPECT_TRUE(a.grad().allclose(Tensor::full({4}, 2.f)));
}

TEST(AutogradCore, DiamondGraphTopologicalOrder) {
  // a feeds two paths of different depth that rejoin; the deeper path must
  // not fire its backward before the shallow consumer contributed.
  Rng rng(4);
  Var a = leaf({3}, rng);
  Var p1 = ops::mul_scalar(a, 2.f);          // shallow
  Var p2 = ops::exp(ops::mul_scalar(a, 0.5f));  // deep
  Var loss = ops::sum_all(ops::mul(p1, p2));
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var q1 = ops::mul_scalar(ls[0], 2.f);
        Var q2 = ops::exp(ops::mul_scalar(ls[0], 0.5f));
        return ops::sum_all(ops::mul(q1, q2));
      },
      {a});
}

TEST(AutogradCore, DetachCutsGraph) {
  Rng rng(5);
  Var a = leaf({3}, rng);
  Var d = ops::mul_scalar(a, 3.f).detach();
  Var loss = ops::sum_all(ops::mul(d, a));
  loss.backward();
  // Only the direct-use path contributes: da = d (not d + 3a).
  EXPECT_TRUE(a.grad().allclose(d.value()));
}

TEST(AutogradCore, ZeroGradResets) {
  Rng rng(6);
  Var a = leaf({2}, rng);
  ops::sum_all(a).backward();
  EXPECT_TRUE(a.grad().allclose(Tensor::ones({2})));
  a.zero_grad();
  EXPECT_TRUE(a.grad().allclose(Tensor::zeros({2})));
}

// --- Finite-difference checks for each op ---

TEST(GradCheck, AddWithBroadcast) {
  Rng rng(10);
  Var a = leaf({2, 3}, rng);
  Var b = leaf({3}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(ops::add(ls[0], ls[1])));
      },
      {a, b});
}

TEST(GradCheck, SubMulDiv) {
  Rng rng(11);
  Var a = leaf({2, 2}, rng);
  Var b(add_scalar(Tensor::rand_uniform({2, 2}, rng, 0.5f, 1.5f), 0.f),
        true);  // keep denominators away from zero
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var s = ops::sub(ls[0], ls[1]);
        Var m = ops::mul(ls[0], ls[1]);
        Var d = ops::div(ls[0], ls[1]);
        return ops::sum_all(ops::add(ops::add(s, m), d));
      },
      {a, b});
}

TEST(GradCheck, ScalarOpsAndNeg) {
  Rng rng(12);
  Var a = leaf({5}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(
            ops::neg(ops::add_scalar(ops::mul_scalar(ls[0], 1.7f), 0.3f)));
      },
      {a});
}

TEST(GradCheck, Nonlinearities) {
  Rng rng(13);
  Var a = leaf({8}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var x = ls[0];
        Var y = ops::add(ops::gelu(x), ops::tanh(x));
        y = ops::add(y, ops::sigmoid(x));
        return ops::sum_all(y);
      },
      {a});
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(14);
  // Keep |x| > 0.1 so finite differences do not straddle the kink.
  Tensor t = Tensor::rand_uniform({6}, rng, 0.2f, 1.f);
  t.at(1) *= -1.f;
  t.at(4) *= -1.f;
  Var a(t, true);
  expect_gradients_match(
      [](std::vector<Var>& ls) { return ops::sum_all(ops::relu(ls[0])); },
      {a}, /*eps=*/1e-3f);
}

TEST(GradCheck, ExpLogSqrtSquare) {
  Rng rng(15);
  Var a(Tensor::rand_uniform({6}, rng, 0.5f, 2.f), true);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var x = ls[0];
        Var y = ops::add(ops::exp(ops::mul_scalar(x, 0.3f)), ops::log(x));
        y = ops::add(y, ops::add(ops::sqrt(x), ops::square(x)));
        return ops::sum_all(y);
      },
      {a});
}

TEST(GradCheck, MatMul) {
  Rng rng(16);
  Var a = leaf({3, 4}, rng);
  Var b = leaf({4, 2}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(ops::matmul(ls[0], ls[1])));
      },
      {a, b});
}

TEST(GradCheck, BatchedMatMulWithBroadcastBatch) {
  Rng rng(17);
  Var a = leaf({3, 2, 4}, rng);
  Var b = leaf({1, 4, 2}, rng);  // broadcast over batch
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(ops::bmm(ls[0], ls[1])));
      },
      {a, b});
}

TEST(GradCheck, ReshapePermute) {
  Rng rng(18);
  Var a = leaf({2, 3, 4}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var p = ops::permute(ls[0], {2, 0, 1});
        Var r = ops::reshape(p, {4, 6});
        return ops::sum_all(ops::square(r));
      },
      {a});
}

TEST(GradCheck, SliceCatPad) {
  Rng rng(19);
  Var a = leaf({2, 4, 3, 3}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var s0 = ops::slice(ls[0], 1, 0, 2);
        Var s1 = ops::slice(ls[0], 1, 2, 2);
        Var c = ops::cat({s1, s0}, 1);   // swapped halves
        Var p = ops::pad2d(c, 1, 0, 0, 1);
        return ops::sum_all(ops::square(p));
      },
      {a});
}

TEST(GradCheck, SumDimKeepAndDrop) {
  Rng rng(20);
  Var a = leaf({3, 4}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var k = ops::sum_dim(ls[0], 1, true);
        Var d = ops::sum_dim(ls[0], 0, false);
        return ops::add(ops::sum_all(ops::square(k)),
                        ops::sum_all(ops::square(d)));
      },
      {a});
}

TEST(GradCheck, SoftmaxLastDim) {
  Rng rng(21);
  Var a = leaf({3, 5}, rng);
  Tensor w = Tensor::randn({3, 5}, rng);
  expect_gradients_match(
      [w](std::vector<Var>& ls) {
        return ops::sum_all(
            ops::mul(ops::softmax_lastdim(ls[0]), Var(w, false)));
      },
      {a}, /*eps=*/1e-2f, /*rtol=*/3e-2f, /*atol=*/3e-3f);
}

TEST(GradCheck, AbsAwayFromKink) {
  Rng rng(26);
  Tensor t = Tensor::randn({3, 4}, rng);
  // Keep every element at least 3*eps from the |.| kink so the central
  // difference never straddles it (same trick as ReluAwayFromKink).
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::fabs(t.at(i)) < 5e-2f) t.at(i) = t.at(i) < 0 ? -5e-2f : 5e-2f;
  }
  Var a(t, true);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::mul(ops::abs(ls[0]), ls[0]));
      },
      {a});
}

TEST(GradCheck, Permute4d) {
  // The 4-D layouts the attention path shuffles through; the rank-3 check
  // above can't catch a stride bug specific to higher ranks.
  Rng rng(27);
  Var a = leaf({2, 3, 2, 4}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        Var p = ops::permute(ls[0], {0, 2, 1, 3});
        Var q = ops::permute(p, {3, 0, 2, 1});
        return ops::sum_all(ops::square(q));
      },
      {a});
}

// The composed chain ops::attention replaces: bmm -> scaled softmax ->
// bmm with a permuted key, as core::SelfAttentionBlock computed it before
// the fused op. q [B,N,d], kt [B,N,d], vt [B,N,C] -> [B,N,C].
Var composed_attention(const Var& q, const Var& kt, const Var& vt,
                       float scale) {
  Var scores = ops::bmm(q, ops::permute(kt, {0, 2, 1}));
  Var attn = ops::softmax_lastdim(ops::mul_scalar(scores, scale));
  return ops::bmm(attn, vt);
}

// The same map through ops::attention, which takes k as [B,d,N] and v as
// [B,C,N] and returns [B,C,N].
Var fused_attention(const Var& q, const Var& kt, const Var& vt, float scale) {
  return ops::attention(q, ops::permute(kt, {0, 2, 1}),
                        ops::permute(vt, {0, 2, 1}), scale);
}

TEST(GradCheck, AttentionComposition) {
  // Checks the INTERACTION of the bmm, softmax and scale backward rules,
  // which the per-op checks above cannot: once through the composed chain
  // and once through the fused op's own backward.
  Rng rng(28);
  Var q = leaf({2, 3, 4}, rng);
  Var k = leaf({2, 3, 4}, rng);
  Var v = leaf({2, 3, 4}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(
            ops::square(composed_attention(ls[0], ls[1], ls[2], 0.5f)));
      },
      {q, k, v}, /*eps=*/1e-2f, /*rtol=*/3e-2f, /*atol=*/3e-3f);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(
            ops::square(fused_attention(ls[0], ls[1], ls[2], 0.5f)));
      },
      {q, k, v}, /*eps=*/1e-2f, /*rtol=*/3e-2f, /*atol=*/3e-3f);
}

TEST(GradCheck, FusedAttentionGradientsMatchComposedChain) {
  // q/k/v gradients of ops::attention against the composed chain, at a
  // size with several softmax columns and a non-square d x C.
  Rng rng(29);
  const Shape qs{2, 11, 3}, vs{2, 11, 5};
  const Tensor q0 = Tensor::randn(qs, rng), k0 = Tensor::randn(qs, rng),
               v0 = Tensor::randn(vs, rng);
  const Tensor w = Tensor::randn({2, 5, 11}, rng);  // loss weights
  auto grads = [&](bool fused) {
    Var q(q0.clone(), true), k(k0.clone(), true), v(v0.clone(), true);
    Var out = fused ? fused_attention(q, k, v, 0.4f)
                    : ops::permute(composed_attention(q, k, v, 0.4f),
                                   {0, 2, 1});
    ops::sum_all(ops::mul(out, Var(w, false))).backward();
    return std::vector<Tensor>{q.grad(), k.grad(), v.grad()};
  };
  const std::vector<Tensor> want = grads(false);
  const std::vector<Tensor> got = grads(true);
  const char* names[] = {"q", "k", "v"};
  for (std::size_t i = 0; i < want.size(); ++i) {
    testing::expect_allclose(got[i], want[i], /*rtol=*/1e-5f, /*atol=*/1e-7f,
                             names[i]);
  }
}

TEST(GradCheck, ResizeBilinear) {
  Rng rng(22);
  Var a = leaf({1, 2, 3, 3}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(ops::resize_bilinear(ls[0], 5, 6)));
      },
      {a});
}

TEST(GradCheck, MseAndL1Loss) {
  Rng rng(23);
  Var a = leaf({2, 3}, rng);
  Var t(Tensor::randn({2, 3}, rng), false);
  expect_gradients_match(
      [t](std::vector<Var>& ls) { return ops::mse_loss(ls[0], t); }, {a});
}

TEST(GradCheck, RelativeL2Loss) {
  Rng rng(26);
  Var a = leaf({2, 4}, rng);
  Var t(Tensor::randn({2, 4}, rng), false);
  expect_gradients_match(
      [t](std::vector<Var>& ls) {
        return ops::relative_l2_loss(ls[0], t);
      },
      {a});
}

TEST(Losses, RelativeL2KnownValue) {
  // pred = 2 * target  ->  ||pred - target|| / ||target|| = 1.
  Var t(Tensor::full({3}, 2.f), false);
  Var p(Tensor::full({3}, 4.f), false);
  EXPECT_NEAR(ops::relative_l2_loss(p, t).value().item(), 1.f, 1e-5f);
  // Perfect prediction -> 0.
  EXPECT_NEAR(ops::relative_l2_loss(t, t).value().item(), 0.f, 1e-6f);
}

TEST(GradCheck, MeanAll) {
  Rng rng(24);
  Var a = leaf({4, 4}, rng);
  expect_gradients_match(
      [](std::vector<Var>& ls) { return ops::mean_all(ops::square(ls[0])); },
      {a});
}

TEST(OperatorSugar, MatchesNamedOps) {
  Rng rng(25);
  Var a = leaf({3}, rng);
  Var b = leaf({3}, rng);
  EXPECT_TRUE((a + b).value().allclose(ops::add(a, b).value()));
  EXPECT_TRUE((a - b).value().allclose(ops::sub(a, b).value()));
  EXPECT_TRUE((a * b).value().allclose(ops::mul(a, b).value()));
  EXPECT_TRUE((2.f * a).value().allclose(ops::mul_scalar(a, 2.f).value()));
}

// Parameterized gradcheck across tensor ranks for the broadcast reducers.
class BroadcastGradP
    : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastGradP, MulGradcheck) {
  auto [sa, sb] = GetParam();
  Rng rng(101);
  Var a = Var(Tensor::randn(sa, rng), true);
  Var b = Var(Tensor::randn(sb, rng), true);
  expect_gradients_match(
      [](std::vector<Var>& ls) {
        return ops::sum_all(ops::square(ops::mul(ls[0], ls[1])));
      },
      {a, b});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastGradP,
    ::testing::Values(std::pair<Shape, Shape>{{2, 3}, {3}},
                      std::pair<Shape, Shape>{{2, 1}, {1, 3}},
                      std::pair<Shape, Shape>{{1, 2, 2}, {3, 1, 1}},
                      std::pair<Shape, Shape>{{4}, {4}}));

}  // namespace
}  // namespace saufno
