// Compiled execution plans: trace/compile/execute must be BIT-identical to
// the define-by-run interpreter (memcmp, not allclose) — the plan path runs
// the same kernels in the same order, so there is no tolerance to hide
// behind. Covers every zoo model on pow2 and non-pow2 grids, the fusion /
// folding compiler passes, the per-shape plan cache (including concurrent
// first use), the interpreter fallback for untraceable models, and the
// plan-arena Reservation plumbing.

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/ir.h"
#include "plan/runner.h"
#include "plan/trace.h"
#include "runtime/inference_engine.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/tensor_ops.h"
#include "testing.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               got.numel())))
      << what << ": plan output is not bit-identical to the interpreter";
}

// Every model the zoo can build, including the ablations — if it can be
// served, it must be plannable (or fall back loudly, which would fail the
// executor_for assertion here).
const std::vector<std::string> kZooNames = {
    "SAU-FNO-micro", "SAU-FNO", "SAU-FNO-all-attn", "U-FNO",
    "FNO",           "DeepOHeat", "GAR",            "CNN"};

TEST(PlanVsInterp, AllZooModelsBitIdenticalOnPow2AndNonPow2) {
  for (const std::string& name : kZooNames) {
    SCOPED_TRACE(name);
    auto model = train::make_model(name, 3, 1, /*seed=*/7);
    model->set_training(false);
    plan::PlanRunner planned(model, plan::Mode::kOn);
    plan::PlanRunner interp(model, plan::Mode::kOff);
    Rng rng = testing::test_rng();
    for (const Shape& shape :
         {Shape{2, 3, 16, 16}, Shape{1, 3, 12, 20}}) {
      SCOPED_TRACE(shape_str(shape));
      Tensor x = Tensor::randn(shape, rng);
      Tensor want = interp.forward(x);
      Tensor got = planned.forward(x);
      // The plan must actually have compiled — a silent fallback would make
      // this test vacuous.
      ASSERT_NE(planned.executor_for(shape), nullptr);
      expect_bitwise(got, want, name);
      // Second run exercises the pooled BoundBuffer path.
      expect_bitwise(planned.forward(x), want, name + " (rerun)");
    }
  }
}

TEST(PlanCompile, FusesBiasActInSauFno) {
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn(shape, rng));
  auto exec = runner.executor_for(shape);
  ASSERT_NE(exec, nullptr);
  // gelu(K(v) + W(v)) in every Fourier layer fuses into kFusedAddAct. The
  // attention softmax never reaches the plan: it runs inside kAttention.
  EXPECT_GT(exec->plan().fused_ops, 0);
  EXPECT_GT(exec->plan().arena_floats, 0);
  EXPECT_FALSE(plan::to_string(exec->plan()).empty());
}

TEST(PlanCompile, SauFnoAttentionHasNoQuadraticTemp) {
  // At 64x64 the [B, N, N] scores would be 2 * 4096^2 floats. The fused
  // kAttention instruction keeps them out of the plan: no temp slot reaches
  // N^2 floats and no bmm/softmax runs under the attention label.
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{2, 3, 64, 64};
  const int64_t n = 64 * 64;
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn(shape, rng));
  auto exec = runner.executor_for(shape);
  ASSERT_NE(exec, nullptr);
  const plan::Plan& p = exec->plan();
  for (const plan::Slot& s : p.slots) {
    if (s.kind != plan::SlotKind::kTemp) continue;
    EXPECT_LT(numel_of(s.shape), n * n) << shape_str(s.shape);
  }
  int attention_instrs = 0;
  for (const plan::Instr& ins : p.instrs) {
    if (ins.label.find("attention") == std::string::npos) continue;
    EXPECT_TRUE(ins.op != plan::OpCode::kBmm &&
                ins.op != plan::OpCode::kSoftmax &&
                ins.op != plan::OpCode::kScaledSoftmax)
        << plan::op_name(ins.op) << " at " << ins.label;
    if (ins.op == plan::OpCode::kAttention) ++attention_instrs;
  }
  EXPECT_GT(attention_instrs, 0);
  EXPECT_GT(p.fused_ops, 0);
}

TEST(PlanCompile, FoldsConstantTrunkInDeepOHeat) {
  auto model = train::make_model("DeepOHeat", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn(shape, rng));
  auto exec = runner.executor_for(shape);
  ASSERT_NE(exec, nullptr);
  // The trunk MLP runs on a shape-derived constant coordinate grid: the
  // whole chain folds to one kConst at compile time.
  EXPECT_GT(exec->plan().folded_ops, 0);
}

TEST(PlanKernels, FusedAddActBitIdenticalToUnfusedChain) {
  Rng rng = testing::test_rng();
  const Shape s{2, 8, 6, 6};
  Tensor a = Tensor::randn(s, rng), b = Tensor::randn(s, rng),
         c = Tensor::randn(s, rng);
  // 3-input same-shape form: gelu((a + b) + c).
  Tensor want = gelu(add(add(a, b), c));
  Tensor out(s);
  fused_add_act_into(a, b, &c, /*act=*/2, out);
  expect_bitwise(out, want, "gelu((a+b)+c)");
  // 2-input broadcasting form: relu(a + bias).
  Tensor bias = Tensor::randn({1, 8, 1, 1}, rng);
  Tensor want2 = relu(add(a, bias));
  Tensor out2(s);
  fused_add_act_into(a, bias, nullptr, /*act=*/1, out2);
  expect_bitwise(out2, want2, "relu(a+bias)");
}

TEST(PlanKernels, ScaledSoftmaxBitIdenticalToMulScalarSoftmax) {
  Rng rng = testing::test_rng();
  Tensor a = Tensor::randn({2, 5, 7}, rng);
  Tensor want = softmax_lastdim(mul_scalar(a, 0.37f));
  Tensor out({2, 5, 7});
  scaled_softmax_lastdim_into(a, 0.37f, out);
  expect_bitwise(out, want, "softmax(0.37*a)");
}

// The chain kAttention replaces, one kernel per step.
Tensor composed_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                          float scale) {
  Tensor scores = bmm(q, k);
  Tensor a(scores.shape());
  scaled_softmax_lastdim_into(scores, scale, a);
  return bmm(v, permute(a, {0, 2, 1}));
}

TEST(PlanKernels, AttentionBitIdenticalToComposition) {
  // Query blocks are 64 rows: N = 1 and 7 are one partial block, 64 exactly
  // one, 65 a full block plus a 1-row tail, 200 a non-dividing multiple.
  auto& pool = runtime::ThreadPool::instance();
  const int restore = pool.num_threads();
  const int64_t d = 5, c = 6;
  const float scale = 0.37f;
  for (const int threads : {1, 2, 8}) {
    pool.resize(threads);
    for (const int64_t n : {1, 7, 64, 65, 200}) {
      for (const int64_t b : {1, 3}) {
        const std::string what = std::to_string(threads) + " threads, B=" +
                                 std::to_string(b) + ", N=" +
                                 std::to_string(n);
        Rng rng(static_cast<std::uint64_t>(100 * n + b));
        Tensor q = Tensor::randn({b, n, d}, rng);
        Tensor k = Tensor::randn({b, d, n}, rng);
        Tensor v = Tensor::randn({b, c, n}, rng);
        Tensor out({b, c, n});
        attention_into(q, k, v, scale, out);
        expect_bitwise(out, composed_attention(q, k, v, scale), what);
      }
    }
    // A NaN in one key column of batch item 1 reaches every score row of
    // that item and no other: the fused kernel must turn exactly the
    // outputs the composition turns (memcmp compares the NaN bits too).
    const int64_t b = 3, n = 65;
    Rng rng(7);
    Tensor q = Tensor::randn({b, n, d}, rng);
    Tensor k = Tensor::randn({b, d, n}, rng);
    Tensor v = Tensor::randn({b, c, n}, rng);
    Tensor clean({b, c, n});
    attention_into(q, k, v, scale, clean);
    k.data()[(1 * d + 2) * n + 40] = std::numeric_limits<float>::quiet_NaN();
    Tensor out({b, c, n});
    attention_into(q, k, v, scale, out);
    expect_bitwise(out, composed_attention(q, k, v, scale),
                   "NaN key, " + std::to_string(threads) + " threads");
    const std::size_t item = sizeof(float) * static_cast<std::size_t>(c * n);
    for (int64_t i = 0; i < b; ++i) {
      const bool same =
          std::memcmp(out.data() + i * c * n, clean.data() + i * c * n,
                      item) == 0;
      EXPECT_EQ(same, i != 1) << "batch item " << i;
    }
  }
  pool.resize(restore);
}

TEST(PlanRunner, CachesOnePlanPerShape) {
  auto model = train::make_model("CNN", 3, 1, 9);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn({1, 3, 16, 16}, rng));
  runner.forward(Tensor::randn({1, 3, 16, 16}, rng));
  EXPECT_EQ(runner.cache_size(), 1u);
  runner.forward(Tensor::randn({2, 3, 12, 20}, rng));
  EXPECT_EQ(runner.cache_size(), 2u);
}

// Mirrors TEST(PlanCache, ConcurrentFirstUseIsCorrectAndCached) in
// test_fft.cpp: racing first-users may compile twice, but exactly one plan
// is published and every thread's result is bit-identical.
TEST(PlanCache, ConcurrentFirstUseIsCorrectAndCached) {
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 11);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor want = interp.forward(x);

  constexpr int kThreads = 4;
  std::vector<Tensor> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] = runner.forward(x);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runner.cache_size(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    expect_bitwise(results[static_cast<std::size_t>(t)], want,
                   "thread " + std::to_string(t));
  }
}

TEST(PlanRunner, UnsupportedOpFallsBackToInterpreter) {
  // sum_all has no plan opcode: the trace poisons itself and the runner
  // serves the interpreted forward instead — identical results, negative
  // cache entry so the compile is not retried per call.
  auto model = std::make_shared<nn::Lambda>([](const Var& x) {
    Var pooled = ops::sum_all(x);  // untraceable on purpose
    (void)pooled;
    return ops::relu(x);
  });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor got = runner.forward(x);
  expect_bitwise(got, relu(x), "fallback");
  EXPECT_EQ(runner.cache_size(), 1u);
  EXPECT_EQ(runner.executor_for(shape), nullptr);
}

TEST(InferenceEngine, PlanModeBitIdenticalToInterpretedServing) {
  // Same seed => same weights; only the forward path differs.
  runtime::InferenceEngine::Config on_cfg;
  on_cfg.plan_mode = 1;
  runtime::InferenceEngine::Config off_cfg;
  off_cfg.plan_mode = 0;
  auto planned = runtime::InferenceEngine::from_zoo("SAU-FNO-micro", 3, 1,
                                                    21, "", on_cfg);
  auto interp = runtime::InferenceEngine::from_zoo("SAU-FNO-micro", 3, 1,
                                                   21, "", off_cfg);
  Rng rng = testing::test_rng();
  for (int i = 0; i < 3; ++i) {
    Tensor x = Tensor::randn({3, 16, 16}, rng);
    Tensor a = planned->submit(x.clone()).get();
    Tensor b = interp->submit(x.clone()).get();
    expect_bitwise(a, b, "request " + std::to_string(i));
  }
  EXPECT_EQ(planned->plan_runner().mode(), plan::Mode::kOn);
  EXPECT_GE(planned->plan_runner().cache_size(), 1u);
}

TEST(Reservation, TracksBytesAndAlignment) {
  const runtime::ArenaStats before = runtime::arena_stats();
  {
    runtime::Reservation r(4096);
    ASSERT_NE(r.floats(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.floats()) % 64, 0u);
    EXPECT_EQ(r.bytes(), 4096u);
    const runtime::ArenaStats mid = runtime::arena_stats();
    EXPECT_EQ(mid.reservations, before.reservations + 1);
    EXPECT_EQ(mid.reserved_bytes, before.reserved_bytes + 4096);
    // Move transfers ownership without double-counting.
    runtime::Reservation moved = std::move(r);
    EXPECT_EQ(runtime::arena_stats().reservations, before.reservations + 1);
    EXPECT_EQ(moved.bytes(), 4096u);
  }
  const runtime::ArenaStats after = runtime::arena_stats();
  EXPECT_EQ(after.reservations, before.reservations);
  EXPECT_EQ(after.reserved_bytes, before.reserved_bytes);
}

TEST(Tensor, WrapExternalSharesCallerMemory) {
  std::vector<float> buf(8, 0.f);
  Tensor t = Tensor::wrap_external(buf.data(), {2, 4});
  t.fill_(3.f);
  EXPECT_EQ(buf[5], 3.f);
  // Reshape views stay on the external buffer...
  Tensor view = t.reshape({4, 2});
  view.data()[0] = 7.f;
  EXPECT_EQ(buf[0], 7.f);
  // ...while clone() detaches to the heap.
  Tensor copy = t.clone();
  copy.fill_(0.f);
  EXPECT_EQ(buf[5], 3.f);
}

}  // namespace
}  // namespace saufno
