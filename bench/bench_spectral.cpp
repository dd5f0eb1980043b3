// Spectral hot-path benchmark: FFT plan cache (cold vs warm), real/Hermitian
// vs full-complex transforms, mode-truncated vs full inverse, and end-to-end
// spectral_conv2d/3d against a verbatim replica of the pre-plan-cache
// algorithm (widen to complex, full-spectrum FFT, scalar mixing loops).
//
// Results are printed AND written to BENCH_spectral.json so the performance
// trajectory is machine-trackable across PRs. `--smoke` (or SAUFNO_SMOKE=1)
// shrinks every size so CI can keep the binary from bit-rotting in seconds,
// and writes BENCH_spectral.smoke.json instead of the committed file.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/spectral3d_ops.h"
#include "autograd/spectral_ops.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/tensor.h"

namespace saufno {
namespace {

struct Entry {
  std::string name;
  double seconds = 0.0;   // per call
  double speedup = 0.0;   // vs the entry's baseline (0 = n/a)
};

std::vector<Entry> g_entries;

void record(const std::string& name, double seconds, double speedup = 0.0) {
  g_entries.push_back({name, seconds, speedup});
  if (speedup > 0.0) {
    std::printf("%-44s %12.3f us   %5.2fx\n", name.c_str(), seconds * 1e6,
                speedup);
  } else {
    std::printf("%-44s %12.3f us\n", name.c_str(), seconds * 1e6);
  }
}

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

/// Verbatim replica of the seed's spectral_conv2d forward (full-complex
/// transforms + scalar mixing), the baseline for the end-to-end speedup.
Tensor reference_spectral_conv2d(const Tensor& x, const Tensor& w, int64_t m1,
                                 int64_t m2, int64_t cout) {
  const int64_t B = x.size(0), cin = x.size(1), H = x.size(2), W = x.size(3);
  const int64_t plane = H * W;
  const auto mm = ops::spectral::make_mode_map(H, W, m1, m2);
  std::vector<cfloat> xf(static_cast<std::size_t>(B * cin * plane));
  const float* xp = x.data();
  for (int64_t i = 0; i < B * cin * plane; ++i) {
    xf[static_cast<std::size_t>(i)] = cfloat(xp[i], 0.f);
  }
  fft_2d(xf.data(), B * cin, H, W, /*inverse=*/false);
  auto widx = [m2, m1, cout](int64_t i, int64_t o, int64_t r, int64_t c) {
    return (((i * cout + o) * (2 * m1) + r) * m2 + c) * 2;
  };
  std::vector<cfloat> yf(static_cast<std::size_t>(B * cout * plane),
                         cfloat(0.f, 0.f));
  const float* wp = w.data();
  for (int64_t b = 0; b < B; ++b) {
    for (const auto& [wr, kr] : mm.rows) {
      for (int64_t c = 0; c < mm.m2e; ++c) {
        const int64_t koff = kr * W + c;
        for (int64_t o = 0; o < cout; ++o) {
          cfloat acc(0.f, 0.f);
          for (int64_t i = 0; i < cin; ++i) {
            const float* wc = wp + widx(i, o, wr, c);
            acc += cfloat(wc[0], wc[1]) *
                   xf[static_cast<std::size_t>((b * cin + i) * plane + koff)];
          }
          yf[static_cast<std::size_t>((b * cout + o) * plane + koff)] = acc;
        }
      }
    }
  }
  fft_2d(yf.data(), B * cout, H, W, /*inverse=*/true);
  Tensor out({B, cout, H, W});
  for (int64_t i = 0; i < B * cout * plane; ++i) {
    out.data()[i] = yf[static_cast<std::size_t>(i)].real();
  }
  return out;
}

/// Same for the 3-D op.
Tensor reference_spectral_conv3d(const Tensor& x, const Tensor& w, int64_t m1,
                                 int64_t m2, int64_t m3, int64_t cout) {
  const int64_t B = x.size(0), cin = x.size(1), D = x.size(2), H = x.size(3),
                W = x.size(4);
  const int64_t vol = D * H * W;
  const auto map_d = ops::spectral::signed_axis_map(D, m1);
  const auto map_h = ops::spectral::signed_axis_map(H, m2);
  const int64_t m3e = std::min(m3, W / 2);
  std::vector<cfloat> xf(static_cast<std::size_t>(B * cin * vol));
  for (int64_t i = 0; i < B * cin * vol; ++i) {
    xf[static_cast<std::size_t>(i)] = cfloat(x.data()[i], 0.f);
  }
  fft_3d(xf.data(), B * cin, D, H, W, false);
  auto widx = [=](int64_t i, int64_t o, int64_t r, int64_t c, int64_t k) {
    return ((((i * cout + o) * (2 * m1) + r) * (2 * m2) + c) * m3 + k) * 2;
  };
  std::vector<cfloat> yf(static_cast<std::size_t>(B * cout * vol),
                         cfloat(0.f, 0.f));
  for (int64_t b = 0; b < B; ++b) {
    for (const auto& [wr, kd] : map_d) {
      for (const auto& [wc, kh] : map_h) {
        for (int64_t k = 0; k < m3e; ++k) {
          const int64_t off = (kd * H + kh) * W + k;
          for (int64_t o = 0; o < cout; ++o) {
            cfloat acc(0.f, 0.f);
            for (int64_t i = 0; i < cin; ++i) {
              const float* wc2 = w.data() + widx(i, o, wr, wc, k);
              acc += cfloat(wc2[0], wc2[1]) *
                     xf[static_cast<std::size_t>((b * cin + i) * vol + off)];
            }
            yf[static_cast<std::size_t>((b * cout + o) * vol + off)] = acc;
          }
        }
      }
    }
  }
  fft_3d(yf.data(), B * cout, D, H, W, true);
  Tensor out({B, cout, D, H, W});
  for (int64_t i = 0; i < B * cout * vol; ++i) {
    out.data()[i] = yf[static_cast<std::size_t>(i)].real();
  }
  return out;
}

void bench_plan_cache(bool smoke) {
  std::printf("\n-- FFT plan cache: cold (build + transform) vs warm --\n");
  for (const int64_t n : {int64_t{64}, int64_t{40}, int64_t{193}}) {
    Rng rng(1 + n);
    std::vector<cfloat> sig(static_cast<std::size_t>(n));
    for (auto& v : sig) {
      v = cfloat(static_cast<float>(rng.normal()),
                 static_cast<float>(rng.normal()));
    }
    auto work = sig;
    fft::clear_plan_cache();
    Timer t;
    fft_1d(work.data(), n, false);
    const double cold = t.seconds();
    const int iters = smoke ? 20 : 2000;
    const double warm = time_per_call(iters, [&] {
      work = sig;
      fft_1d(work.data(), n, false);
    });
    record("fft_1d n=" + std::to_string(n) + " cold(first use)", cold);
    record("fft_1d n=" + std::to_string(n) + " warm", warm, cold / warm);
  }
}

void bench_rfft_vs_complex(bool smoke) {
  std::printf("\n-- rfft/irfft vs full-complex round trip --\n");
  const int64_t batch = smoke ? 4 : 64;
  const int64_t h = smoke ? 16 : 64, w = h;
  Rng rng(7);
  const Tensor x = Tensor::randn({batch, h, w}, rng);
  const int iters = smoke ? 3 : 30;

  runtime::Scratch<cfloat> full(static_cast<std::size_t>(batch * h * w));
  const double complex_s = time_per_call(iters, [&] {
    for (int64_t i = 0; i < batch * h * w; ++i) {
      full.data()[i] = cfloat(x.data()[i], 0.f);
    }
    fft_2d(full.data(), batch, h, w, false);
    fft_2d(full.data(), batch, h, w, true);
  });
  const int64_t wk = rfft_cols(w);
  runtime::Scratch<cfloat> half(static_cast<std::size_t>(batch * h * wk));
  runtime::Scratch<float> back(static_cast<std::size_t>(batch * h * w));
  const double rfft_s = time_per_call(iters, [&] {
    rfft_2d(x.data(), half.data(), batch, h, w, wk);
    irfft_2d(half.data(), back.data(), batch, h, w, wk, 1.f);
  });
  const std::string sz = std::to_string(h) + "x" + std::to_string(w);
  record("complex fft_2d+ifft_2d " + sz, complex_s);
  record("rfft_2d+irfft_2d " + sz, rfft_s, complex_s / rfft_s);

  // Mode truncation on top of the real path: keep only m2e columns.
  const int64_t modes = smoke ? 4 : 12;
  runtime::Scratch<cfloat> trunc(static_cast<std::size_t>(batch * h * modes));
  const double trunc_s = time_per_call(iters, [&] {
    rfft_2d(x.data(), trunc.data(), batch, h, w, modes);
    irfft_2d(trunc.data(), back.data(), batch, h, w, modes, 1.f);
  });
  record("rfft_2d+irfft_2d " + sz + " wk=" + std::to_string(modes), trunc_s,
         complex_s / trunc_s);
}

double bench_spectral_conv2d(bool smoke) {
  std::printf("\n-- end-to-end spectral_conv2d forward (old vs new) --\n");
  const int64_t B = smoke ? 2 : 8, C = smoke ? 4 : 32;
  const int64_t H = smoke ? 16 : 64, W = H;
  const int64_t m = smoke ? 4 : 12;
  Rng rng(11);
  const Tensor x = Tensor::randn({B, C, H, W}, rng);
  const Tensor w = Tensor::randn({C, C, 2 * m, m, 2}, rng, 0.f, 0.3f);
  const int iters = smoke ? 2 : 5;

  // Warm both paths (plans, arena) before timing.
  Tensor ref = reference_spectral_conv2d(x, w, m, m, C);
  Tensor got =
      ops::spectral_conv2d(Var(x, false), Var(w, false), m, m, C).value();
  if (!got.allclose(ref, 1e-2f, 1e-3f)) {
    std::printf("WARNING: old/new outputs disagree beyond tolerance!\n");
  }

  const double old_s = time_per_call(iters, [&] {
    reference_spectral_conv2d(x, w, m, m, C);
  });
  const double new_s = time_per_call(iters, [&] {
    ops::spectral_conv2d(Var(x, false), Var(w, false), m, m, C);
  });
  const std::string cfg = "B=" + std::to_string(B) + ",C=" + std::to_string(C) +
                          "," + std::to_string(H) + "x" + std::to_string(W) +
                          ",m=" + std::to_string(m);
  record("spectral_conv2d OLD (full complex) " + cfg, old_s);
  record("spectral_conv2d NEW (rfft+truncated) " + cfg, new_s, old_s / new_s);
  return old_s / new_s;
}

double bench_spectral_conv3d(bool smoke) {
  std::printf("\n-- end-to-end spectral_conv3d forward (old vs new) --\n");
  const int64_t B = smoke ? 1 : 2, C = smoke ? 2 : 8;
  const int64_t D = smoke ? 4 : 8, H = smoke ? 8 : 24, W = H;
  const int64_t m = smoke ? 2 : 4;
  Rng rng(13);
  const Tensor x = Tensor::randn({B, C, D, H, W}, rng);
  const Tensor w = Tensor::randn({C, C, 2 * m, 2 * m, m, 2}, rng, 0.f, 0.3f);
  const int iters = smoke ? 2 : 5;

  Tensor ref = reference_spectral_conv3d(x, w, m, m, m, C);
  Tensor got =
      ops::spectral_conv3d(Var(x, false), Var(w, false), m, m, m, C).value();
  if (!got.allclose(ref, 1e-2f, 1e-3f)) {
    std::printf("WARNING: old/new 3-D outputs disagree beyond tolerance!\n");
  }

  const double old_s = time_per_call(iters, [&] {
    reference_spectral_conv3d(x, w, m, m, m, C);
  });
  const double new_s = time_per_call(iters, [&] {
    ops::spectral_conv3d(Var(x, false), Var(w, false), m, m, m, C);
  });
  const std::string cfg = "B=" + std::to_string(B) + ",C=" + std::to_string(C) +
                          "," + std::to_string(D) + "x" + std::to_string(H) +
                          "x" + std::to_string(W) + ",m=" + std::to_string(m);
  record("spectral_conv3d OLD (full complex) " + cfg, old_s);
  record("spectral_conv3d NEW (rfft+truncated) " + cfg, new_s, old_s / new_s);
  return old_s / new_s;
}

void write_json(const char* path, bool smoke, double speedup2d,
                double speedup3d) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "bench_spectral");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("speedup_spectral_conv2d", speedup2d, 4);
  w.field("speedup_spectral_conv3d", speedup3d, 4);
  const double hits = static_cast<double>(obs::counter("arena.hits").value());
  const double misses =
      static_cast<double>(obs::counter("arena.misses").value());
  w.field("arena_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, 4);
  w.key("results");
  w.begin_array();
  for (const auto& e : g_entries) {
    w.begin_object();
    w.field("name", e.name);
    w.field("threads", runtime::ThreadPool::instance().num_threads());
    w.field("seconds_per_call", e.seconds, 9);
    w.field("speedup", e.speedup, 4);
    w.end_object();
  }
  w.end_array();
  // Full telemetry scrape: plan-cache hit rates and arena behavior under
  // the benched workload ride along with the timings.
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

  std::printf("== bench_spectral (%s mode) ==\n", smoke ? "smoke" : "full");
  bench_plan_cache(smoke);
  bench_rfft_vs_complex(smoke);
  const double s2 = bench_spectral_conv2d(smoke);
  const double s3 = bench_spectral_conv3d(smoke);
  write_json(smoke ? "BENCH_spectral.smoke.json" : "BENCH_spectral.json",
             smoke, s2, s3);
  std::printf("\nend-to-end speedup: conv2d %.2fx, conv3d %.2fx\n", s2, s3);
  return 0;
}
