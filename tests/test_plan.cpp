// Compiled execution plans: trace/compile/execute must be BIT-identical to
// the define-by-run interpreter (memcmp, not allclose) — the plan path runs
// the same kernels in the same order, so there is no tolerance to hide
// behind. Covers every zoo model on pow2 and non-pow2 grids, every opcode
// no zoo model traces, the fused instructions the ops layer records,
// constant folding, the per-shape plan cache (including concurrent first
// use), the compile failure for an op with no opcode, tracing only under
// NoGradGuard, and the plan-arena Reservation plumbing.

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/spectral3d_ops.h"
#include "common/fault.h"
#include "nn/module.h"
#include "obs/metrics.h"
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
// served, it must be plannable.
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

// Plan output of `model` memcmp-equals the interpreter on each input, and
// the compiled plan holds `op`.
void expect_plan_runs_op(const std::shared_ptr<nn::Module>& model,
                         plan::OpCode op, const std::vector<Tensor>& inputs,
                         const std::string& what) {
  SCOPED_TRACE(what);
  plan::PlanRunner planned(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  for (const Tensor& x : inputs) {
    expect_bitwise(planned.forward(x), interp.forward(x), what);
  }
  ASSERT_EQ(planned.cache_size(), 1u);
  auto exec = planned.executor_for(inputs[0].shape());
  ASSERT_NE(exec, nullptr);
  bool found = false;
  for (const plan::Instr& ins : exec->plan().instrs) found |= ins.op == op;
  EXPECT_TRUE(found) << plan::op_name(op) << " is not in the compiled plan";
}

TEST(PlanVsInterp, OpcodesNoZooModelTracesBitIdentical) {
  using plan::OpCode;
  Rng rng = testing::test_rng();
  const Shape shape{2, 3, 4, 5};
  const Tensor x = Tensor::randn(shape, rng);
  // Constant operands: leaves the trace captures as kConst slots.
  const Var bias(Tensor::randn({1, 3, 1, 1}, rng));
  const Var rhs(Tensor::randn({6, 5, 7}, rng));
  const std::vector<std::tuple<std::string, OpCode, nn::Lambda::Fn>> cases = {
      {"sub", OpCode::kSub, [=](const Var& v) { return ops::sub(v, bias); }},
      {"div", OpCode::kDiv, [=](const Var& v) { return ops::div(bias, v); }},
      {"add_scalar", OpCode::kAddScalar,
       [](const Var& v) { return ops::add_scalar(v, 0.25f); }},
      {"mul_scalar", OpCode::kMulScalar,
       [](const Var& v) { return ops::mul_scalar(v, 1.5f); }},
      {"neg", OpCode::kMulScalar, [](const Var& v) { return ops::neg(v); }},
      {"relu", OpCode::kRelu, [](const Var& v) { return ops::relu(v); }},
      {"sigmoid", OpCode::kSigmoid,
       [](const Var& v) { return ops::sigmoid(v); }},
      {"exp", OpCode::kExp, [](const Var& v) { return ops::exp(v); }},
      {"log", OpCode::kLog,
       [](const Var& v) { return ops::log(ops::abs(v)); }},
      {"sqrt", OpCode::kSqrt,
       [](const Var& v) { return ops::sqrt(ops::abs(v)); }},
      {"square", OpCode::kSquare,
       [](const Var& v) { return ops::square(v); }},
      {"abs", OpCode::kAbs, [](const Var& v) { return ops::abs(v); }},
      {"slice", OpCode::kSlice,
       [](const Var& v) { return ops::slice(v, 1, 1, 2); }},
      {"slice at a negative dim", OpCode::kSlice,
       [](const Var& v) { return ops::slice(v, -1, 2, 3); }},
      {"pad2d", OpCode::kPad2d,
       [](const Var& v) { return ops::pad2d(v, 1, 0, 2, 1); }},
      {"bmm", OpCode::kBmm,
       [=](const Var& v) { return ops::bmm(ops::reshape(v, {6, 4, 5}), rhs); }},
      {"softmax", OpCode::kSoftmax,
       [](const Var& v) { return ops::softmax_lastdim(v); }},
      {"sum_dim keepdim", OpCode::kSumDim,
       [](const Var& v) { return ops::sum_dim(v, 1, /*keepdim=*/true); }},
      {"sum_dim", OpCode::kSumDim,
       [](const Var& v) { return ops::sum_dim(v, -1, /*keepdim=*/false); }},
  };
  for (const auto& [what, op, fn] : cases) {
    expect_plan_runs_op(std::make_shared<nn::Lambda>(fn), op, {x}, what);
  }

  // spectral_conv3d on a 5-D [B, Cin, D, H, W] input.
  const int64_t cin = 2, cout = 3, m1 = 2, m2 = 2, m3 = 2;
  const Var w3(Tensor::randn({cin, cout, 2 * m1, 2 * m2, m3, 2}, rng));
  expect_plan_runs_op(std::make_shared<nn::Lambda>([=](const Var& v) {
                        return ops::spectral_conv3d(v, w3, m1, m2, m3, cout);
                      }),
                      OpCode::kSpectralConv3d,
                      {Tensor::randn({2, cin, 4, 6, 8}, rng)},
                      "spectral_conv3d");

  // A model that reshapes its raw input: the plan binds that view as an
  // alias of the input slot and must rebind it on every run.
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(Tensor::randn(shape, rng));
  expect_plan_runs_op(std::make_shared<nn::Lambda>([](const Var& v) {
                        return ops::reshape(
                            ops::relu(ops::reshape(v, {2, 60})), {2, 3, 4, 5});
                      }),
                      OpCode::kRelu, inputs, "reshaped input");
}

TEST(PlanCompile, FusedOpsPerZooModel) {
  // The ops layer fuses conv+relu (UNet, CNN), gelu(K v + W v [+ U v])
  // (every Fourier layer) and the GELU after the lifting and projection
  // pointwise convs (GAR's two sit in its coarse FNO); the tracer records
  // those fused instructions and compile() counts the ops they stand for. The attention softmax never
  // reaches the plan: it runs inside kAttention.
  const std::vector<std::pair<std::string, int64_t>> want = {
      {"SAU-FNO", 21}, {"SAU-FNO-micro", 10}, {"SAU-FNO-all-attn", 21},
      {"U-FNO", 21},   {"FNO", 5},            {"DeepOHeat", 0},
      {"GAR", 4},      {"CNN", 3}};
  ASSERT_EQ(want.size(), kZooNames.size());
  const Shape shape{2, 3, 32, 32};
  for (const auto& [name, fused] : want) {
    SCOPED_TRACE(name);
    auto model = train::make_model(name, 3, 1, 7);
    model->set_training(false);
    plan::PlanRunner runner(model, plan::Mode::kOn);
    Rng rng = testing::test_rng();
    runner.forward(Tensor::randn(shape, rng));
    auto exec = runner.executor_for(shape);
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->plan().fused_ops, fused);
    EXPECT_GT(exec->plan().arena_floats, 0);
    EXPECT_FALSE(plan::to_string(exec->plan()).empty());
    if (name != "SAU-FNO") continue;
    // Every 1x1 channel map is one kConv2d on a folded [cout, cin, 1, 1]
    // weight, so no matmul is left, and kAttention takes its query as the
    // [B, d, N] the projection writes, so no permute is left either.
    int matmuls = 0, permutes = 0;
    for (const plan::Instr& ins : exec->plan().instrs) {
      if (ins.op == plan::OpCode::kMatmul) ++matmuls;
      if (ins.op == plan::OpCode::kPermute) ++permutes;
    }
    EXPECT_EQ(matmuls, 0);
    EXPECT_EQ(permutes, 0);
  }
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
  fused_add_act_into(a, b, &c, Act::kGelu, out);
  expect_bitwise(out, want, "gelu((a+b)+c)");
  // 2-input form: relu(a + b).
  Tensor want2 = relu(add(a, b));
  Tensor out2(s);
  fused_add_act_into(a, b, nullptr, Act::kRelu, out2);
  expect_bitwise(out2, want2, "relu(a+b)");
  // Operands of different shapes throw rather than broadcast.
  Tensor bias = Tensor::randn({1, 8, 1, 1}, rng);
  EXPECT_THROW(fused_add_act_into(a, bias, nullptr, Act::kRelu, out2),
               std::runtime_error);
  EXPECT_THROW(fused_add_act_into(a, b, &bias, Act::kRelu, out2),
               std::runtime_error);
}

TEST(PlanKernels, ScaledSoftmaxBitIdenticalToMulScalarSoftmax) {
  Rng rng = testing::test_rng();
  Tensor a = Tensor::randn({2, 5, 7}, rng);
  Tensor want = softmax_lastdim(mul_scalar(a, 0.37f));
  Tensor out({2, 5, 7});
  scaled_softmax_lastdim_into(a, 0.37f, out);
  expect_bitwise(out, want, "softmax(0.37*a)");
}

// The chain kAttention replaces, one kernel per step, for q [B, d, N].
Tensor composed_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                          float scale) {
  Tensor scores = bmm(permute(q, {0, 2, 1}), k);
  Tensor a(scores.shape());
  scaled_softmax_lastdim_into(scores, scale, a);
  return bmm(v, permute(a, {0, 2, 1}));
}

TEST(PlanKernels, AttentionBitIdenticalToComposition) {
  // Query blocks are 64 rows in 16-query panels: N = 1 and 7 are one
  // partial block, 64 exactly one, 65 a full block plus a 1-row tail, 200 a
  // non-dividing multiple, 300 ends on a partial panel of 12 queries over
  // a key count that is not a multiple of 8, and 1600 is serve_40's 40x40.
  // From N = 600 the mix product's k (the key count) crosses the 512-float
  // K block, so its partial tiles are folded into the output. c = 12 is
  // the zoo's SAU-FNO width (two full 6-row panels of packed V); c = 6 and
  // 13 leave none and one dead panel row.
  auto& pool = runtime::ThreadPool::instance();
  const int restore = pool.num_threads();
  const float scale = 0.37f;
  struct Dims {
    int64_t d, c;
  };
  for (const int threads : {1, 2, 8}) {
    pool.resize(threads);
    for (const Dims dims : {Dims{5, 6}, Dims{12, 12}, Dims{12, 13}}) {
      const int64_t d = dims.d, c = dims.c;
      for (const int64_t n : {1, 7, 64, 65, 200, 300, 600, 1600}) {
        for (const int64_t b : {1, 3}) {
          const std::string what =
              std::to_string(threads) + " threads, B=" + std::to_string(b) +
              ", N=" + std::to_string(n) + ", d=" + std::to_string(d) +
              ", c=" + std::to_string(c);
          Rng rng(static_cast<std::uint64_t>(100 * n + 10 * c + b));
          Tensor q = Tensor::randn({b, d, n}, rng);
          Tensor k = Tensor::randn({b, d, n}, rng);
          Tensor v = Tensor::randn({b, c, n}, rng);
          Tensor out({b, c, n});
          attention_into(q, k, v, scale, out);
          expect_bitwise(out, composed_attention(q, k, v, scale), what);
        }
      }
    }
    {
      // Fewer (batch x block) chunks than pool lanes at 8 threads: 2 x 3
      // chunks, each running both of its block gemms serially.
      const int64_t b = 2, n = 130, d = 12, c = 13;
      Rng rng(11);
      Tensor q = Tensor::randn({b, d, n}, rng);
      Tensor k = Tensor::randn({b, d, n}, rng);
      Tensor v = Tensor::randn({b, c, n}, rng);
      Tensor out({b, c, n});
      attention_into(q, k, v, scale, out);
      expect_bitwise(out, composed_attention(q, k, v, scale),
                     "6 chunks, " + std::to_string(threads) + " threads");
    }
    const int64_t d = 5, c = 6;
    // A NaN in one key column of batch item 1 reaches every score row of
    // that item and no other: the fused kernel must turn exactly the
    // outputs the composition turns (memcmp compares the NaN bits too),
    // and every output of the poisoned item must be non-finite.
    const int64_t b = 3, n = 65;
    Rng rng(7);
    Tensor q = Tensor::randn({b, d, n}, rng);
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
    for (int64_t j = 0; j < c * n; ++j) {
      ASSERT_FALSE(std::isfinite(out.data()[c * n + j])) << "item 1, " << j;
    }
    // Infinite and negative-zero keys at the first key (the seed of every
    // column's max) and the last (a tail key past the last 8-key group, at
    // N = 65 and 300), beside the NaN key of item 1. Item 0 gets +inf and
    // -inf in two key dims: a query whose two scores both come out -inf
    // gives those keys exactly zero weight and stays finite, any other
    // holds inf - inf. Item 2 gets whole -0 key columns. The infinities
    // stay out of the NaN item: where the key's NaN meets the default NaN
    // of inf - inf, IEEE 754 leaves open which of the two an operation
    // returns, and the compiler may swap a product's operands.
    for (const int64_t ne : {int64_t{65}, int64_t{300}}) {
      Rng erng(static_cast<std::uint64_t>(ne));
      Tensor eq = Tensor::randn({b, d, ne}, erng);
      Tensor ek = Tensor::randn({b, d, ne}, erng);
      Tensor ev = Tensor::randn({b, c, ne}, erng);
      const auto key = [&](int64_t item, int64_t dim, int64_t j) -> float& {
        return ek.data()[(item * d + dim) * ne + j];
      };
      const float inf = std::numeric_limits<float>::infinity();
      key(0, 0, 0) = inf;
      key(0, 3, ne - 1) = -inf;
      for (int64_t dim = 0; dim < d; ++dim) {
        key(2, dim, 0) = -0.f;
        key(2, dim, ne - 1) = -0.f;
      }
      key(1, 2, 40) = std::numeric_limits<float>::quiet_NaN();
      Tensor eout({b, c, ne});
      attention_into(eq, ek, ev, scale, eout);
      expect_bitwise(eout, composed_attention(eq, ek, ev, scale),
                     "inf/-0 keys, N=" + std::to_string(ne) + ", " +
                         std::to_string(threads) + " threads");
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

TEST(PlanRunner, UnsupportedOpThrowsAndCachesNothing) {
  // sum_all has no plan opcode. Recording nothing would freeze the traced
  // value into the plan as a constant, so the compile throws instead,
  // caches nothing and throws again on the next try; the interpreter still
  // runs the model.
  auto model = std::make_shared<nn::Lambda>([](const Var& x) {
    return ops::add(x, ops::mean_all(x));
  });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  EXPECT_THROW(runner.forward(x), std::runtime_error);
  EXPECT_EQ(runner.cache_size(), 0u);
  EXPECT_THROW(runner.prepare(shape), std::runtime_error);
  EXPECT_EQ(runner.cache_size(), 0u);
  // The failed trace ended its session: the interpreter's sum_all runs.
  Tensor got;
  ASSERT_NO_THROW(got = interp.forward(x));
  EXPECT_EQ(got.shape(), shape);
}

TEST(TraceSession, ThrowsUnderGradMode) {
  // The ops layer records only untaped results, so a trace that could build
  // a tape would miss ops. The runner traces under NoGradGuard.
  ASSERT_TRUE(GradMode::enabled());
  Var in{Tensor({1, 2})};
  EXPECT_THROW(plan::TraceSession(/*named_params=*/{}, in),
               std::runtime_error);
  // The refused session left none active: a nested one would throw here.
  NoGradGuard no_grad;
  plan::TraceSession sess({}, in);
  Var out = ops::relu(in);
  EXPECT_EQ(sess.take_plan(out).instrs.size(), 1u);
}

TEST(TraceSession, TracingIsTrueOnlyInsideASessionOnItsThread) {
  // tracing() is read from outside the library, as every ops:: caller
  // reads it; the sanitizer lane checks that read.
  EXPECT_FALSE(plan::tracing());
  NoGradGuard no_grad;
  Var in{Tensor({2, 3})};
  {
    plan::TraceSession sess({}, in);
    EXPECT_TRUE(plan::tracing());
    bool other_thread = true;
    std::thread([&] { other_thread = plan::tracing(); }).join();
    EXPECT_FALSE(other_thread);
  }
  EXPECT_FALSE(plan::tracing());
}

TEST(PlanRunner, ThrownCompileIsNotCachedAndRetries) {
  // A fault inside the traced compile throws CompileError, naming the
  // fault, and caches nothing, so the shape's next forward compiles instead
  // of interpreting for the runner's whole life.
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  const Tensor x = Tensor::randn(shape, rng);
  ASSERT_TRUE(fault::configure("gemm:throw:n=1", 1));
  try {
    runner.forward(x);
    ADD_FAILURE() << "the faulted compile did not throw";
  } catch (const plan::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("gemm"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runner.cache_size(), 0u);
  EXPECT_NO_THROW(runner.forward(x));
  EXPECT_EQ(fault::injected_count("gemm"), 1);
  fault::clear();
  EXPECT_NE(runner.executor_for(shape), nullptr);
}

/// Sample count of every `kernel.*` histogram in the registry, by name.
std::map<std::string, int64_t> kernel_sample_counts() {
  std::map<std::string, int64_t> counts;
  for (const auto& m : obs::Registry::instance().snapshot()) {
    if (m.kind == obs::MetricKind::kHistogram &&
        m.name.rfind("kernel.", 0) == 0) {
      counts[m.name] = m.count;
    }
  }
  return counts;
}

TEST(PlanVsInterp, BothPathsRecordTheSameKernelSamples) {
  // Each kernel is timed once, where it runs, and the executor adds no
  // timer of its own: a profiled planned forward records exactly the
  // kernel.* samples an interpreted one does.
  auto model = train::make_model("SAU-FNO-micro", 3, 1, /*seed=*/7);
  model->set_training(false);
  plan::PlanRunner planned(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  Rng rng = testing::test_rng();
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng);
  planned.forward(x);  // compile outside the profiled forward
  ASSERT_NE(planned.executor_for(x.shape()), nullptr);
  const auto profiled_delta = [&](plan::PlanRunner& runner) {
    const std::map<std::string, int64_t> before = kernel_sample_counts();
    obs::force_profile_kernels(true);
    runner.forward(x);
    obs::force_profile_kernels(false);
    std::map<std::string, int64_t> delta = kernel_sample_counts();
    for (auto& [name, n] : delta) {
      const auto it = before.find(name);
      if (it != before.end()) n -= it->second;
    }
    return delta;
  };
  const std::map<std::string, int64_t> from_interp = profiled_delta(interp);
  const std::map<std::string, int64_t> from_plan = profiled_delta(planned);
  EXPECT_EQ(from_plan, from_interp);
  for (const char* name : {"kernel.conv2d_us", "kernel.attention_us",
                           "kernel.rfft_2d_us", "kernel.irfft_2d_us"}) {
    const auto it = from_plan.find(name);
    ASSERT_NE(it, from_plan.end()) << name;
    EXPECT_GT(it->second, 0) << name;
  }
  for (const auto& m : obs::Registry::instance().snapshot()) {
    EXPECT_NE(m.name.rfind("plan.instr.", 0), 0u) << m.name;
  }
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
  const obs::Gauge& bytes = obs::gauge("arena.reserved_bytes");
  const obs::Gauge& count = obs::gauge("arena.reservations");
  const int64_t bytes0 = bytes.value(), count0 = count.value();
  {
    runtime::Reservation r(4096);
    ASSERT_NE(r.floats(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.floats()) % 64, 0u);
    EXPECT_EQ(r.bytes(), 4096u);
    EXPECT_EQ(count.value(), count0 + 1);
    EXPECT_EQ(bytes.value(), bytes0 + 4096);
    // Move transfers ownership without double-counting.
    runtime::Reservation moved = std::move(r);
    EXPECT_EQ(count.value(), count0 + 1);
    EXPECT_EQ(moved.bytes(), 4096u);
    // Move assignment exchanges: the replaced block dies with the
    // temporary, the new one stays counted.
    moved = runtime::Reservation(1024);
    EXPECT_EQ(moved.bytes(), 1024u);
    EXPECT_EQ(count.value(), count0 + 1);
    EXPECT_EQ(bytes.value(), bytes0 + 1024);
  }
  EXPECT_EQ(count.value(), count0);
  EXPECT_EQ(bytes.value(), bytes0);
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
