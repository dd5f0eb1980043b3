#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "stats.h"

namespace perfbench {

/// The two workloads. Each sets up, runs its timed window, checks its
/// outputs and fills `Report` with the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run).
Report run_sweep_64(const Options& opts);
Report run_serve_40(const Options& opts);

/// Generations of one serve_40 job whose TCP responses are checked against
/// in-process submit: the first 12 in a traced run, otherwise the first and
/// one drawn from `pick`. None when the job ran no generation, because its
/// connection was lost before the window.
std::vector<std::size_t> serve_check_sample(std::size_t generations,
                                            bool traced, saufno::Rng& pick);

/// Pool size the workload runs at: nproc - 1 (>= 1) for sweep_64, 1 for
/// serve_40.
int run_threads(const Options& opts);

/// One cold start: seconds to the first results, and the process's peak
/// resident set when they arrived.
struct ColdStart {
  double seconds = 0.0;
  double rss_mb = 0.0;
};

/// Per-operation results gathered over one timed window.
struct WindowStats {
  std::vector<double> latency_ms;  // one per successful operation
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0.0;
  int64_t completed() const { return attempted - failed; }
  double throughput() const {
    return seconds > 0 ? static_cast<double>(completed()) / seconds : 0.0;
  }
};

/// The timed window's end condition: it has run `opts.seconds` and holds
/// `min_samples` latency samples (by default enough for p90 to have 10
/// beyond it), or it hit a hard cap. A traced run reports no percentiles and
/// times two windows (one untraced, one traced), so each lasts half the run
/// length and needs no minimum sample count; neither does a smoke run.
class WindowClock {
 public:
  explicit WindowClock(const Options& opts,
                       int64_t min_samples = min_samples_for_tail(0.9))
      : seconds_(opts.trace ? opts.seconds / 2 : opts.seconds),
        min_samples_(opts.smoke || opts.trace ? 1 : min_samples),
        hard_cap_s_(std::max(60.0, 4.0 * opts.seconds)),
        t0_(std::chrono::steady_clock::now()) {}
  double elapsed() const { return seconds_since(t0_); }
  bool done(int64_t samples) const {
    const double s = elapsed();
    return (s >= seconds_ && samples >= min_samples_) || s >= hard_cap_s_;
  }

 private:
  double seconds_;
  int64_t min_samples_;
  double hard_cap_s_;
  std::chrono::steady_clock::time_point t0_;
};

/// The untraced run's end-to-end metrics, plus notes with the sample
/// counts. setup_s is the median cold start. peak_rss_mb is the window's
/// own peak (`window_rss_mb`): the resident set while serving. The
/// cold-start peak, set by plan compiles whose order and overlap vary with
/// thread timing, is only noted.
void report_end_to_end(const Options& opts, const WindowStats& w,
                       const std::vector<ColdStart>& cold,
                       double window_rss_mb, Report* report);

/// Common notes: nproc, pool size, seed, run length.
void note_run_facts(const Options& opts, Report* report);

/// One timed window of a workload, recording spans into the given log.
using WindowFn = std::function<void(SpanLog&, WindowStats*)>;

/// The traced window: spans on and the library's kernel profiling on (pool
/// busy time is only counted then). Reports its runtime.* window counters.
void run_traced_window(const WindowFn& window, SpanLog& spans,
                       WindowStats* traced, Report* report);

/// trace.overhead_pct and span dump for a traced run.
void report_trace(const Options& opts, const WindowStats& untraced,
                  const WindowStats& traced, const SpanLog& spans,
                  Report* report);

/// Cold starts of the workload, each in a fresh child process (this binary
/// with --setup-probe 1), so that repeated set-ups neither warm each
/// other's caches nor leave freed memory and thread stacks in the process
/// the window runs in. `n` of them in an untraced run, none in a traced,
/// smoke or child run.
std::vector<ColdStart> child_cold_starts(const Options& opts, int n);

/// This process's cold start, begun at `t0`, ends now. Restarts the peak
/// resident set so the window's own peak can be told apart.
ColdStart finish_cold_start(std::chrono::steady_clock::time_point t0);

/// The child's result: setup_s and peak_rss_mb of its one cold start.
Report cold_start_report(const ColdStart& c);

}  // namespace perfbench
