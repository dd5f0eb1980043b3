// Kernel-core benchmark: the packed/SIMD-blocked gemm against a byte-level
// preserved copy of the seed scalar kernel (gemm_seed_reference), across the
// matrix shapes the zoo models actually hit at serving scale (B=8, C=32,
// 64x64 grids). The end-to-end forward rate is perfbench's sweep_64
// throughput_per_s, so it is not repeated here.
//
// The attention_block rows time the fused attention kernel (attention_into:
// each 64-query block's scores computed transposed, straight into the
// packed Pᵀ panels the mix product reads, with the softmax run down their
// columns) against the composed chain it replaced (bmm(permute(q), k) ->
// scaled softmax -> permute -> bmm over [B,N,N] buffers, with q and k
// [B,d,N] as the projections write them), and memcmp the two outputs; a
// mismatch exits nonzero in every mode. The rows are sweep_64's shape,
// N = 4096 on the whole pool for d = c = 12 (the zoo's SAU-FNO width) and
// 32, and serve_40's N = 1600, d = c = 12 at the 1 thread it serves on.
//
// The conv2d rows time the forward convolution (ops::fwd::conv2d_into,
// bias + ReLU as the U-Net runs it) at the two widest per-partition convs
// of sweep_64, [4,12,64,64] -> 12 (in_conv) and [4,36,64,64] -> 12 (dec0),
// and memcmp it against the unfused per-item im2col -> gemm -> +bias ->
// ReLU chain; a mismatch exits nonzero in every mode.
//
// The pointwise_conv rows time nn::PointwiseConv::forward, the 1x1 conv
// with bias and activation in its epilogue, at sweep_64's per-partition
// [4,12,64,64] -> 12 with GELU (a lifting/projection map) and serve_40's
// [8,24,40,40] -> 2 (the projection Q), and memcmp it against the permute ->
// matmul -> +bias -> permute -> act chain it replaced. The gelu row times
// gelu_into, the 8-lane GELU sweep every fused GELU shares, at
// [8,24,64,64] and memcmps it against the scalar act_apply. A mismatch in
// either exits nonzero in every mode.
//
// The microkernel rows time gemm_packed alone, on one thread with both
// operands packed beforehand, at the three products the forward spends its
// gemm time in: the attention scores (m = 4096 keys, n = 16 queries, k =
// d = 12), the attention mix (m = c = 12, n = 64 queries, k = 4096 keys)
// and dec0's conv (m = 12, n = 4096 pixels, k = 36 * 9). Each row records
// its GFLOP/s beside a register-only FMA peak measured in the same run
// (twelve independent fmadd chains, no memory), so the fraction of peak
// compares across hosts, and memcmps its output against
// gemm_chain_reference, the per-element contract of kernels.h; a mismatch
// exits nonzero in every mode. At the portable level (SAUFNO_SIMD=0) the
// peak reads 0.
//
// Also times the compiled-execution-plan forward (plan::PlanRunner) against
// the define-by-run interpreter on the same weights and input, as the
// median of 41 alternating single-call pairs: the two are bit-identical by
// construction and run the same fused kernels, so the delta is pure
// dispatch/arena win.
//
// Results are printed AND written to BENCH_kernels.json so the performance
// trajectory is machine-trackable across PRs. `--smoke` (or SAUFNO_SMOKE=1)
// shrinks sizes so CI runs in seconds and writes BENCH_kernels.smoke.json
// instead, so a smoke run never replaces the committed full-mode file. In
// smoke mode the binary exits nonzero if the new gemm is SLOWER than the
// seed kernel at the reference shape, or if the plan-mode forward is slower
// than the interpreted one — either perf regression fails CI instead of
// just flattening a graph.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../tests/conv2d_reference.h"
#include "../tests/gemm_chain_reference.h"
#include "../tests/gemm_seed_reference.h"
#include "../tests/pointwise_reference.h"
#include "autograd/conv_ops.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/linear.h"
#include "obs/export.h"
#include "plan/executor.h"
#include "plan/runner.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

struct Entry {
  std::string name;
  int64_t m = 0, n = 0, k = 0;
  double gflops_seed = 0.0;
  double gflops_new = 0.0;
  double speedup = 0.0;
};

std::vector<Entry> g_entries;

/// Best-of-3 timing of `iters` calls to fn; returns seconds per call.
template <typename Fn>
double time_per_call(int iters, Fn fn) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

/// Time one gemm shape under both kernels. Also cross-checks that the
/// blocked kernel agrees with the seed kernel on dense random data (where
/// the zero-skip cannot fire), so the bench doubles as a smoke-level
/// equivalence test at real shapes.
Entry bench_shape(const std::string& name, int64_t m, int64_t n, int64_t k,
                  int iters) {
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(m * 31 + n * 7 + k));
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_seed({m, n});
  Tensor c_new({m, n});

  const double flop = 2.0 * static_cast<double>(m) * n * k;
  const double sec_seed = time_per_call(iters, [&] {
    gemm_seed_reference(a.data(), b.data(), c_seed.data(), m, n, k,
                        /*accumulate=*/false);
  });
  const double sec_new = time_per_call(iters, [&] {
    gemm(a.data(), b.data(), c_new.data(), m, n, k, /*accumulate=*/false);
  });
  // atol scales with k: fp32 accumulation error grows ~eps * k for both
  // kernels (the blocked one is measurably CLOSER to a double reference),
  // so near-zero outputs need k-proportional slack.
  const float atol = 2e-6f * static_cast<float>(k);
  if (!c_new.allclose(c_seed, /*rtol=*/1e-4f, atol)) {
    std::printf("FATAL: blocked gemm diverges from seed kernel at %s\n",
                name.c_str());
    std::exit(2);
  }

  Entry e;
  e.name = name;
  e.m = m;
  e.n = n;
  e.k = k;
  e.gflops_seed = flop / sec_seed * 1e-9;
  e.gflops_new = flop / sec_new * 1e-9;
  e.speedup = sec_seed / sec_new;
  g_entries.push_back(e);
  std::printf("%-28s m=%-6lld n=%-6lld k=%-5lld %8.2f -> %8.2f GFLOP/s  %5.2fx\n",
              name.c_str(), static_cast<long long>(m),
              static_cast<long long>(n), static_cast<long long>(k),
              e.gflops_seed, e.gflops_new, e.speedup);
  return e;
}

struct AttentionBench {
  int threads = 0;
  int64_t batch = 0, n = 0, c = 0;
  double ms_composed = 0.0;
  double ms_fused = 0.0;
  double gflops_fused = 0.0;
  bool bitwise_equal = false;
};

/// Fused attention_into against the composed chain at [batch, n, c] with
/// d = c (SAU-FNO's attention embedding width), on `threads` pool lanes
/// (0: the pool as it is). GFLOP/s counts the two products,
/// 2 * batch * n^2 * (d + c) flops.
AttentionBench bench_attention(int64_t batch, int64_t n, int64_t c,
                               int threads, bool smoke) {
  auto& pool = runtime::ThreadPool::instance();
  const int restore = pool.num_threads();
  if (threads > 0) pool.resize(threads);
  AttentionBench r;
  r.threads = pool.num_threads();
  r.batch = batch;
  r.n = n;
  r.c = c;
  const int64_t d = r.c;
  const float scale = 1.f / std::sqrt(static_cast<float>(d));
  Rng rng(17);
  Tensor q = Tensor::randn({r.batch, d, r.n}, rng);
  Tensor k = Tensor::randn({r.batch, d, r.n}, rng);
  Tensor v = Tensor::randn({r.batch, r.c, r.n}, rng);
  Tensor fused({r.batch, r.c, r.n});
  Tensor composed;
  const int iters = smoke ? 4 : 1;  // best of 3 either way
  r.ms_composed = 1e3 * time_per_call(iters, [&] {
    Tensor s = bmm(permute(q, {0, 2, 1}), k);
    scaled_softmax_lastdim_into(s, scale, s);
    composed = bmm(v, permute(s, {0, 2, 1}));
  });
  r.ms_fused = 1e3 * time_per_call(iters, [&] {
    attention_into(q, k, v, scale, fused);
  });
  const double flop = 2.0 * static_cast<double>(r.batch) * r.n * r.n *
                      static_cast<double>(d + r.c);
  r.gflops_fused = flop / r.ms_fused * 1e-6;
  r.bitwise_equal =
      std::memcmp(fused.data(), composed.data(),
                  sizeof(float) * static_cast<std::size_t>(fused.numel())) ==
      0;
  std::printf("attention_block [%lld, %lld, %lld] %d thread(s): composed "
              "%.1f ms -> fused %.1f ms  %.2fx  %.1f GFLOP/s  (%s)\n",
              static_cast<long long>(r.batch), static_cast<long long>(r.n),
              static_cast<long long>(r.c), r.threads, r.ms_composed,
              r.ms_fused, r.ms_composed / r.ms_fused, r.gflops_fused,
              r.bitwise_equal ? "bit-identical" : "OUTPUTS DIFFER");
  pool.resize(restore);
  return r;
}

struct ConvBench {
  std::string name;
  int64_t batch = 0, cin = 0, hw = 0, cout = 0;
  double ms = 0.0;
  double gflops = 0.0;
  bool bitwise_equal = false;
};

/// conv2d_into with a 3x3 kernel, pad 1, bias and ReLU on [batch, cin, hw,
/// hw] -> cout. GFLOP/s counts the product, 2 * batch * cout * cin * 9 *
/// hw^2 flops.
ConvBench bench_conv(const std::string& name, int64_t batch, int64_t cin,
                     int64_t hw, int64_t cout, bool smoke) {
  ConvBench r;
  r.name = name;
  r.batch = batch;
  r.cin = cin;
  r.hw = hw;
  r.cout = cout;
  Rng rng(static_cast<std::uint64_t>(31 * cin + cout));
  const Tensor x = Tensor::randn({batch, cin, hw, hw}, rng);
  const Tensor w = Tensor::randn({cout, cin, 3, 3}, rng);
  const Tensor bias = Tensor::randn({cout}, rng);
  Tensor out({batch, cout, hw, hw});
  r.ms = 1e3 * time_per_call(smoke ? 8 : 20, [&] {
    ops::fwd::conv2d_into(x, w, &bias, 1, 1, Act::kRelu, out);
  });
  const Tensor want = conv2d_reference(x, w, &bias, 1, 1, Act::kRelu);
  r.gflops = 2.0 * static_cast<double>(batch * cout * cin * 9 * hw * hw) /
             r.ms * 1e-6;
  r.bitwise_equal =
      std::memcmp(out.data(), want.data(),
                  sizeof(float) * static_cast<std::size_t>(out.numel())) == 0;
  std::printf("conv2d %-8s [%lld, %lld, %lld, %lld] -> %lld: %.3f ms  "
              "%.1f GFLOP/s  (%s)\n",
              name.c_str(), static_cast<long long>(batch),
              static_cast<long long>(cin), static_cast<long long>(hw),
              static_cast<long long>(hw), static_cast<long long>(cout), r.ms,
              r.gflops, r.bitwise_equal ? "bit-identical" : "OUTPUTS DIFFER");
  return r;
}

struct PointwiseBench {
  int64_t batch = 0, cin = 0, hw = 0, cout = 0;
  Act act = Act::kNone;
  double ms = 0.0;
  double gflops = 0.0;
  bool bitwise_equal = false;
};

/// No-grad PointwiseConv::forward(x, act) with a random bias on [batch,
/// cin, hw, hw] -> cout. GFLOP/s counts the product, 2 * batch * cout * cin
/// * hw^2 flops.
PointwiseBench bench_pointwise(int64_t batch, int64_t cin, int64_t hw,
                               int64_t cout, Act act, bool smoke) {
  PointwiseBench r;
  r.batch = batch;
  r.cin = cin;
  r.hw = hw;
  r.cout = cout;
  r.act = act;
  Rng rng(static_cast<std::uint64_t>(17 * cin + cout));
  nn::PointwiseConv pw(cin, cout, rng);
  Var w, b;
  for (auto& [name, v] : pw.named_parameters()) {
    (name == "weight" ? w : b) = v;
  }
  const Tensor bias = Tensor::randn({cout}, rng);
  std::memcpy(b.value().data(), bias.data(), sizeof(float) * cout);
  const Var x(Tensor::randn({batch, cin, hw, hw}, rng));
  NoGradGuard no_grad;
  Tensor out;
  r.ms = 1e3 * time_per_call(smoke ? 8 : 20,
                             [&] { out = pw.forward(x, act).value(); });
  const Tensor want = pointwise_reference(x, w, b, act).value();
  r.gflops = 2.0 * static_cast<double>(batch * cout * cin * hw * hw) /
             r.ms * 1e-6;
  r.bitwise_equal =
      std::memcmp(out.data(), want.data(),
                  sizeof(float) * static_cast<std::size_t>(out.numel())) == 0;
  std::printf("pointwise_conv [%lld, %lld, %lld, %lld] -> %lld%s: %.3f ms  "
              "%.1f GFLOP/s  (%s)\n",
              static_cast<long long>(batch), static_cast<long long>(cin),
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(cout), act == Act::kGelu ? " + GELU" : "",
              r.ms, r.gflops,
              r.bitwise_equal ? "bit-identical" : "OUTPUTS DIFFER");
  return r;
}

struct GeluBench {
  Shape shape;
  double ms = 0.0;
  bool bitwise_equal = false;
};

/// gelu_into over `shape`, memcmp'd against act_apply(kGelu) per element.
GeluBench bench_gelu(const Shape& shape, bool smoke) {
  GeluBench r;
  r.shape = shape;
  Rng rng(0x6e1u);
  const Tensor x = Tensor::randn(shape, rng);
  Tensor out(shape);
  r.ms = 1e3 * time_per_call(smoke ? 8 : 20, [&] { gelu_into(x, out); });
  r.bitwise_equal = true;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float want = act_apply(Act::kGelu, x.at(i));
    r.bitwise_equal =
        r.bitwise_equal && std::memcmp(&want, &out.at(i), sizeof(float)) == 0;
  }
  std::printf("gelu %s: %.3f ms  %.2f Gelem/s  (%s)\n",
              shape_str(shape).c_str(), r.ms,
              static_cast<double>(x.numel()) / r.ms * 1e-6,
              r.bitwise_equal ? "bit-identical" : "OUTPUTS DIFFER");
  return r;
}

#if SAUFNO_X86_DISPATCH
/// Twelve independent 8-lane fmadd chains, `iters` steps each, held in
/// registers: the rate the microkernel's 6x16 tile would reach if its loads
/// and broadcasts were free.
__attribute__((target("avx2,fma"))) void fma_chains(int64_t iters) {
  volatile float one = 1.f, tiny = 1e-7f;
  const __m256 x = _mm256_set1_ps(one), y = _mm256_set1_ps(tiny);
  __m256 a0 = y, a1 = y, a2 = y, a3 = y, a4 = y, a5 = y;
  __m256 a6 = y, a7 = y, a8 = y, a9 = y, a10 = y, a11 = y;
  for (int64_t i = 0; i < iters; ++i) {
    a0 = _mm256_fmadd_ps(a0, x, y);
    a1 = _mm256_fmadd_ps(a1, x, y);
    a2 = _mm256_fmadd_ps(a2, x, y);
    a3 = _mm256_fmadd_ps(a3, x, y);
    a4 = _mm256_fmadd_ps(a4, x, y);
    a5 = _mm256_fmadd_ps(a5, x, y);
    a6 = _mm256_fmadd_ps(a6, x, y);
    a7 = _mm256_fmadd_ps(a7, x, y);
    a8 = _mm256_fmadd_ps(a8, x, y);
    a9 = _mm256_fmadd_ps(a9, x, y);
    a10 = _mm256_fmadd_ps(a10, x, y);
    a11 = _mm256_fmadd_ps(a11, x, y);
  }
  __m256 sum = a0;
  for (const __m256 a : {a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11}) {
    sum = _mm256_add_ps(sum, a);
  }
  volatile float sink = _mm256_cvtss_f32(sum);
  (void)sink;
}
#endif

/// GFLOP/s of fma_chains, best of 3 runs of ~20 ms; 0 at the portable
/// level.
double fma_peak_gflops() {
#if SAUFNO_X86_DISPATCH
  if (simd::level() == simd::Level::kAvx2) {
    constexpr int64_t kIters = 2000000;  // 384 MFLOP
    return 12.0 * 8 * 2 * kIters /
           time_per_call(1, [] { fma_chains(kIters); }) * 1e-9;
  }
#endif
  return 0.0;
}

struct MicroBench {
  std::string name;
  int64_t m = 0, n = 0, k = 0;
  double gflops = 0.0;
  double peak_gflops = 0.0;
  bool bitwise_equal = false;
};

/// One thread of gemm_packed, C[m, n] = A[m, k] B[k, n] with both operands
/// packed outside the timed calls, memcmp'd against gemm_chain_reference.
MicroBench bench_micro(const std::string& name, int64_t m, int64_t n,
                       int64_t k, double peak_gflops) {
  MicroBench r;
  r.name = name;
  r.m = m;
  r.n = n;
  r.k = k;
  r.peak_gflops = peak_gflops;
  Rng rng(static_cast<std::uint64_t>(m * 131 + n * 7 + k));
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> ap(static_cast<std::size_t>(gemm_packed_a_floats(m, k)));
  std::vector<float> bp(static_cast<std::size_t>(gemm_packed_b_floats(k, n)));
  gemm_pack_a(a.data(), k, m, k, ap.data());
  gemm_pack_b(b.data(), n, k, n, bp.data());
  Tensor got({m, n}), want({m, n});
  const double flop = 2.0 * static_cast<double>(m) * n * k;
  const int iters = static_cast<int>(std::max(1.0, 1e8 / flop));
  const double sec = time_per_call(iters, [&] {
    gemm_packed(ap.data(), bp.data(), got.data(), n, m, n, k,
                /*accumulate=*/false);
  });
  r.gflops = flop / sec * 1e-9;
  gemm_chain_reference(a.data(), b.data(), want.data(), n, m, n, k,
                       /*accumulate=*/false);
  r.bitwise_equal =
      std::memcmp(got.data(), want.data(),
                  sizeof(float) * static_cast<std::size_t>(m * n)) == 0;
  std::printf("microkernel %-6s m=%-5lld n=%-5lld k=%-5lld 1 thread: "
              "%6.1f GFLOP/s, %.2f of the %.1f FMA peak  (%s)\n",
              name.c_str(), static_cast<long long>(m),
              static_cast<long long>(n), static_cast<long long>(k), r.gflops,
              peak_gflops > 0 ? r.gflops / peak_gflops : 0.0, peak_gflops,
              r.bitwise_equal ? "bit-identical" : "OUTPUTS DIFFER");
  return r;
}

struct PlanBench {
  double compile_ms = 0.0;
  double speedup = 0.0;  // interpreted sec/call over plan sec/call
  int64_t instr_count = 0;
  int64_t fused_kernels = 0;
  int64_t folded_ops = 0;
  // Per-phase split of the compile from PlanRunner::last_compile_breakdown:
  // trace (the recorded forward — the dominant term), lower (graph
  // extraction), passes (folding/liveness/arena/leveling).
  double compile_trace_ms = 0.0;
  double compile_lower_ms = 0.0;
  double compile_passes_ms = 0.0;
};

/// Compiled plan vs interpreter on the same model/input. The outputs are
/// bit-identical (tests/test_plan.cpp proves it), so this only measures the
/// dispatch and arena win. Compile cost is reported as first-call time minus
/// a steady-state call, i.e. what one cache miss actually adds to a request.
///
/// The speedup is the median over alternating single-call pairs: each
/// pair's interpreted over planned time is one sample and the side that
/// runs first alternates, so a scheduler hiccup moves one sample and slow
/// drift cancels. A smoke forward takes ~1 ms, and windows timed one after
/// the other drift apart by more than the few percent the 1.0 gate must
/// resolve.
PlanBench bench_plan(bool smoke) {
  const int64_t B = smoke ? 2 : 8;
  const int64_t H = smoke ? 16 : 64, W = H;
  auto model = train::make_model(smoke ? "SAU-FNO-micro" : "SAU-FNO", 3, 1,
                                 /*seed=*/7);
  model->set_training(false);
  Rng rng(13);
  Tensor x = Tensor::randn({B, 3, H, W}, rng);

  plan::PlanRunner interp(model, plan::Mode::kOff);
  plan::PlanRunner planned(model, plan::Mode::kOn);

  // Warm FFT plans and the per-thread workspace freelists; the plan's own
  // workspace is one Reservation, allocated by its first call.
  (void)interp.forward(x);
  Timer t;
  (void)planned.forward(x);  // first call traces + compiles + runs
  const double first_call = t.seconds();

  constexpr int kPairs = 41;
  std::vector<double> ratio, sec_interp_v, sec_plan_v;
  for (int i = 0; i < kPairs; ++i) {
    double sec[2];  // [interpreter, plan]
    for (const int side : {i % 2, 1 - i % 2}) {
      Timer call;
      (void)(side == 0 ? interp : planned).forward(x);
      sec[side] = call.seconds();
    }
    ratio.push_back(sec[0] / sec[1]);
    sec_interp_v.push_back(sec[0]);
    sec_plan_v.push_back(sec[1]);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double sec_interp = median(sec_interp_v);
  const double sec_plan = median(sec_plan_v);

  PlanBench r;
  r.compile_ms = std::max(0.0, (first_call - sec_plan) * 1e3);
  r.speedup = median(ratio);
  if (auto exec = planned.executor_for(x.shape())) {
    r.instr_count = static_cast<int64_t>(exec->plan().instrs.size());
    r.fused_kernels = exec->plan().fused_ops;
    r.folded_ops = exec->plan().folded_ops;
  }
  const auto bd = planned.last_compile_breakdown();
  r.compile_trace_ms = bd.trace_ms;
  r.compile_lower_ms = bd.lower_ms;
  r.compile_passes_ms = bd.passes_ms;
  std::printf("\nplan vs interpreter (B=%lld, %lldx%lld, median of %d "
              "alternating pairs): %.2f ms -> %.2f ms  %.2fx  (compile "
              "%.1f ms, %lld instrs, %lld fused, %lld folded)\n",
              static_cast<long long>(B), static_cast<long long>(H),
              static_cast<long long>(W), kPairs, sec_interp * 1e3,
              sec_plan * 1e3, r.speedup, r.compile_ms,
              static_cast<long long>(r.instr_count),
              static_cast<long long>(r.fused_kernels),
              static_cast<long long>(r.folded_ops));
  std::printf("plan compile breakdown: trace %.1f ms (the recorded forward), "
              "lower %.1f ms, passes %.1f ms\n",
              r.compile_trace_ms, r.compile_lower_ms, r.compile_passes_ms);
  return r;
}

void write_json(const char* path, bool smoke, double ref_speedup,
                const PlanBench& plan,
                const std::vector<AttentionBench>& attn,
                const std::vector<ConvBench>& convs,
                const std::vector<PointwiseBench>& pointwise,
                const GeluBench& gelu,
                const std::vector<MicroBench>& micro) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "bench_kernels");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("simd_level", simd::level_name());
  w.field("threads", runtime::ThreadPool::instance().num_threads());
  w.field("gemm_speedup_reference_shape", ref_speedup, 4);
  w.field("plan_compile_ms", plan.compile_ms, 4);
  w.field("plan_compile_trace_ms", plan.compile_trace_ms, 4);
  w.field("plan_compile_lower_ms", plan.compile_lower_ms, 4);
  w.field("plan_compile_passes_ms", plan.compile_passes_ms, 4);
  w.field("plan_vs_interp_speedup", plan.speedup, 4);
  w.field("plan_instr_count", plan.instr_count);
  w.field("plan_fused_kernels", plan.fused_kernels);
  w.field("plan_folded_ops", plan.folded_ops);
  w.key("attention_block");
  w.begin_array();
  for (const AttentionBench& a : attn) {
    w.begin_object();
    w.field("threads", a.threads);
    w.field("batch", a.batch);
    w.field("n", a.n);
    w.field("d", a.c);
    w.field("c", a.c);
    w.field("ms_composed", a.ms_composed, 4);
    w.field("ms_fused", a.ms_fused, 4);
    w.field("speedup", a.ms_composed / a.ms_fused, 4);
    w.field("gflops_fused", a.gflops_fused, 4);
    w.field("bitwise_equal", a.bitwise_equal);
    w.end_object();
  }
  w.end_array();
  w.key("conv2d");
  w.begin_array();
  for (const ConvBench& c : convs) {
    w.begin_object();
    w.field("name", c.name);
    w.field("threads", runtime::ThreadPool::instance().num_threads());
    w.field("batch", c.batch);
    w.field("cin", c.cin);
    w.field("hw", c.hw);
    w.field("cout", c.cout);
    w.field("ms", c.ms, 4);
    w.field("gflops", c.gflops, 4);
    w.field("bitwise_equal", c.bitwise_equal);
    w.end_object();
  }
  w.end_array();
  w.key("pointwise_conv");
  w.begin_array();
  for (const PointwiseBench& p : pointwise) {
    w.begin_object();
    w.field("threads", runtime::ThreadPool::instance().num_threads());
    w.field("batch", p.batch);
    w.field("cin", p.cin);
    w.field("hw", p.hw);
    w.field("cout", p.cout);
    w.field("act", p.act == Act::kGelu ? "gelu" : "none");
    w.field("ms", p.ms, 4);
    w.field("gflops", p.gflops, 4);
    w.field("bitwise_equal", p.bitwise_equal);
    w.end_object();
  }
  w.end_array();
  w.key("gelu");
  w.begin_object();
  w.field("threads", runtime::ThreadPool::instance().num_threads());
  w.field("shape", shape_str(gelu.shape));
  w.field("ms", gelu.ms, 4);
  w.field("bitwise_equal", gelu.bitwise_equal);
  w.end_object();
  w.key("microkernel");
  w.begin_array();
  for (const MicroBench& mk : micro) {
    w.begin_object();
    w.field("name", mk.name);
    w.field("threads", 1);
    w.field("m", mk.m);
    w.field("n", mk.n);
    w.field("k", mk.k);
    w.field("gflops", mk.gflops, 4);
    w.field("peak_gflops", mk.peak_gflops, 4);
    w.field("fraction_of_peak",
            mk.peak_gflops > 0 ? mk.gflops / mk.peak_gflops : 0.0, 4);
    w.field("bitwise_equal", mk.bitwise_equal);
    w.end_object();
  }
  w.end_array();
  w.key("results");
  w.begin_array();
  for (const auto& e : g_entries) {
    w.begin_object();
    w.field("name", e.name);
    w.field("threads", runtime::ThreadPool::instance().num_threads());
    w.field("m", e.m);
    w.field("n", e.n);
    w.field("k", e.k);
    w.field("gflops_seed", e.gflops_seed, 4);
    w.field("gflops_new", e.gflops_new, 4);
    w.field("speedup", e.speedup, 4);
    w.end_object();
  }
  w.end_array();
  w.key("obs");
  w.raw_value(obs::dump_json());
  w.end_object();
  w.write_file(path);
}

}  // namespace
}  // namespace saufno

int main(int argc, char** argv) {
  using namespace saufno;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* env = std::getenv("SAUFNO_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke = true;

  std::printf("== bench_kernels (%s mode, simd=%s) ==\n",
              smoke ? "smoke" : "full", simd::level_name());
  std::printf("shapes are the B=8, C=32, 64x64 serving hot path\n\n");

  // Reference shape for the CI gate: the U-Net 3x3 conv gemm, the fattest
  // per-sample contraction in the forward.
  Entry ref;
  if (smoke) {
    ref = bench_shape("conv3x3_ref", 32, 1024, 288, 8);
    bench_shape("pointwise", 4096, 32, 32, 8);
    bench_shape("attn_scores", 256, 256, 16, 8);
  } else {
    ref = bench_shape("conv3x3_ref", 32, 4096, 288, 20);
    bench_shape("pointwise", 32768, 32, 32, 20);
    bench_shape("attn_scores", 1024, 1024, 16, 20);
    bench_shape("attn_mix", 32, 1024, 1024, 20);
    bench_shape("decoder_mlp", 32768, 64, 32, 20);
    bench_shape("conv_grad_weight", 32, 288, 4096, 20);
  }

  // d = c = 12 is the zoo's SAU-FNO width; 32 the wider embedding.
  std::printf("\n");
  std::vector<AttentionBench> attn;
  for (const int64_t c : {int64_t{12}, int64_t{32}}) {
    attn.push_back(smoke ? bench_attention(2, 200, c, 0, smoke)
                         : bench_attention(8, 4096, c, 0, smoke));
  }
  // serve_40's 40x40 job at the 1 thread it serves on; smoke runs 20x20.
  attn.push_back(bench_attention(smoke ? 2 : 8, smoke ? 400 : 1600, 12, 1,
                                 smoke));
  // sweep_64's per-partition in_conv and dec0 (B = 4 at 64x64); smoke
  // runs them at 24x24, where panels straddle output rows.
  std::printf("\n");
  std::vector<ConvBench> convs;
  convs.push_back(bench_conv("in_conv", smoke ? 2 : 4, 12, smoke ? 24 : 64,
                             12, smoke));
  convs.push_back(bench_conv("dec0", smoke ? 2 : 4, 36, smoke ? 24 : 64, 12,
                             smoke));
  // sweep_64's per-partition lifting map (GELU in the epilogue) and
  // serve_40's projection; smoke runs them at 24x24 and 20x20.
  std::printf("\n");
  std::vector<PointwiseBench> pointwise;
  pointwise.push_back(bench_pointwise(smoke ? 2 : 4, 12, smoke ? 24 : 64, 12,
                                      Act::kGelu, smoke));
  pointwise.push_back(bench_pointwise(smoke ? 2 : 8, 24, smoke ? 20 : 40, 2,
                                      Act::kNone, smoke));
  const GeluBench gelu = bench_gelu(
      smoke ? Shape{2, 24, 24, 24} : Shape{8, 24, 64, 64}, smoke);
  // The forward's three gemm products on one thread: sweep_64's attention
  // scores and mix per 16- and 64-query step, and dec0's conv per image.
  std::printf("\n");
  const double peak = fma_peak_gflops();
  std::vector<MicroBench> micro;
  micro.push_back(bench_micro("scores", 4096, 16, 12, peak));
  micro.push_back(bench_micro("mix", 12, 64, 4096, peak));
  micro.push_back(bench_micro("dec0", 12, 4096, 36 * 9, peak));
  const PlanBench plan = bench_plan(smoke);

  write_json(smoke ? "BENCH_kernels.smoke.json" : "BENCH_kernels.json", smoke,
             ref.speedup, plan, attn, convs, pointwise, gelu, micro);

  int rc = 0;
  for (const AttentionBench& a : attn) {
    if (!a.bitwise_equal) {
      std::printf("FAIL: fused attention differs from the composed chain at "
                  "n = %lld, c = %lld\n", static_cast<long long>(a.n),
                  static_cast<long long>(a.c));
      rc = 1;
    }
  }
  for (const ConvBench& c : convs) {
    if (!c.bitwise_equal) {
      std::printf("FAIL: conv2d_into differs from im2col -> gemm -> bias -> "
                  "ReLU at %s\n", c.name.c_str());
      rc = 1;
    }
  }
  for (const PointwiseBench& p : pointwise) {
    if (!p.bitwise_equal) {
      std::printf("FAIL: pointwise conv differs from permute -> matmul -> "
                  "bias -> permute -> act at [%lld, %lld, %lld, %lld] -> "
                  "%lld\n",
                  static_cast<long long>(p.batch),
                  static_cast<long long>(p.cin), static_cast<long long>(p.hw),
                  static_cast<long long>(p.hw),
                  static_cast<long long>(p.cout));
      rc = 1;
    }
  }
  for (const MicroBench& mk : micro) {
    if (!mk.bitwise_equal) {
      std::printf("FAIL: gemm_packed differs from the per-element chain "
                  "reference at %s\n", mk.name.c_str());
      rc = 1;
    }
  }
  if (!gelu.bitwise_equal) {
    std::printf("FAIL: gelu_into differs from the scalar GELU\n");
    rc = 1;
  }
  if (smoke && ref.speedup < 1.0) {
    std::printf("FAIL: blocked gemm slower than the seed kernel at the "
                "reference shape (%.2fx)\n", ref.speedup);
    rc = 1;
  }
  if (smoke && plan.speedup < 1.0) {
    std::printf("FAIL: plan-mode forward slower than the interpreter "
                "(%.2fx)\n", plan.speedup);
    rc = 1;
  }
  return rc;
}
