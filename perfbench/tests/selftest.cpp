// Self-tests of the benchmark's own helpers: the percentile tail rule,
// span self time, the plan-replay ledger (its groups sum to its total, and
// its output equals the compiled plan's), and serve_40's check sample when a
// connection is lost.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "ledger.h"
#include "plan/runner.h"
#include "spans.h"
#include "stats.h"
#include "train/model_zoo.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(perfbench::percentile({7.0}, 0.9) == 7.0, "p90 of one sample");
  expect(perfbench::percentile({}, 0.5) == 0.0, "empty set reads 0");
  // "At least 10 samples beyond": p90 needs 100 samples, 99 are too few.
  expect(perfbench::samples_beyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  expect(perfbench::tail_supported(100, 0.9), "p90 supported at n=100");
  expect(!perfbench::tail_supported(99, 0.9), "p90 unsupported at n=99");
  expect(perfbench::min_samples_for_tail(0.9) == 100, "p90 needs 100 samples");
  expect(perfbench::min_samples_for_tail(0.99) == 1000, "p99 needs 1000 samples");
  expect(perfbench::min_samples_for_tail(0.5) == 20, "p50 needs 20 samples");
}

void test_self_time() {
  std::vector<perfbench::Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 40, 0, 1};
  spans[2] = {"b", 30, 60, 0, 1};    // overlaps a: union covers [10, 60)
  spans[3] = {"c", 90, 130, 0, 1};   // clipped to the parent's end
  const auto self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 50 - 10, "root self time excludes child union");
  expect(self[1] == 30 && self[2] == 30 && self[3] == 40, "leaf self = duration");
  perfbench::SpanLog off(false);
  expect(off.begin("x", -1, 0) == -1 && off.spans().empty(), "disabled log");
}

void test_ledger() {
  using saufno::plan::Mode;
  auto model = saufno::train::make_model("SAU-FNO-micro", 4, 2, 7);
  const auto inputs = perfbench::chip1_model_inputs(16, 3, 11);
  const saufno::Tensor x =
      perfbench::chip1_normalizer().encode_inputs(perfbench::stack(inputs));
  saufno::plan::PlanRunner runner(model, Mode::kOn);
  const saufno::Tensor y = runner.forward(x);
  const auto exec = runner.executor_for(x.shape());
  expect(exec != nullptr, "micro model compiles");
  if (exec == nullptr) return;
  const auto ledger = perfbench::replay_plan(exec->plan(), x, 2);
  expect(perfbench::same_bits(ledger.output, y), "replay output == plan output");
  expect(ledger.instrs.size() == exec->plan().instrs.size(),
         "every instruction replayed once");
  double by_group = 0.0, by_op = 0.0;
  for (const auto& [g, ms] : ledger.ms_by_group()) by_group += ms;
  for (const auto& [op, ms] : ledger.ms_by_op()) by_op += ms;
  const double tol = 1e-9 * std::max(1.0, ledger.total_ms);
  expect(std::fabs(by_group - ledger.total_ms) <= tol, "groups sum to the total");
  expect(std::fabs(by_op - ledger.total_ms) <= tol, "ops sum to the total");
  expect(ledger.ms_by_group().count("attention") == 1 &&
             ledger.ms_by_group().count("spectral") == 1,
         "SAU-FNO has attention and spectral layers");
  expect(perfbench::layer_group("sau_fno/attention") == "attention" &&
             perfbench::layer_group("sau_fno/ufourier/spectral") == "spectral" &&
             perfbench::layer_group("sau_fno/ufourier/unet") == "unet" &&
             perfbench::layer_group("sau_fno/lift") == "pointwise",
         "label grouping");
}

void test_serve_check_sample() {
  saufno::Rng pick(3);
  expect(perfbench::serve_check_sample(0, false, pick).empty() &&
             perfbench::serve_check_sample(0, true, pick).empty(),
         "a job whose connection was lost before the window has nothing to check");
  const auto one = perfbench::serve_check_sample(1, false, pick);
  expect(one.size() == 2 && one[0] == 0 && one[1] == 0, "one generation: check it");
  bool in_range = true;
  for (int i = 0; i < 100; ++i) {
    for (std::size_t g : perfbench::serve_check_sample(5, false, pick)) in_range &= g < 5;
  }
  expect(in_range, "untraced sample stays within the generations run");
  expect(perfbench::serve_check_sample(5, true, pick).size() == 5 &&
             perfbench::serve_check_sample(40, true, pick).size() == 12,
         "traced sample: the first 12 generations");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_ledger();
  test_serve_check_sample();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
