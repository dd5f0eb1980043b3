#include "workloads.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "obs/metrics.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Run `args` (args[0] is the program) with stdout captured, wait for it,
/// and return what it printed. Throws when it cannot start or fails.
std::string run_child(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot start the set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed: " + out);
  }
  return out;
}

}  // namespace

int run_threads(const Options& opts) {
  // serve_40 runs its forwards inline. Its batches are hundreds of pool
  // tasks of microseconds to a few milliseconds each, and on a shared host
  // every worker wake-up and join can cost milliseconds. Measured back to
  // back on the 4-vCPU reference host, the serve_40 forward (B=8, 40x40)
  // ranged 255-612 ms at 3 threads and 539-709 ms at 1. Its probes still
  // time the forward at 1, nproc - 1 and nproc.
  if (opts.workload == "serve_40") return 1;
  return std::max(1, nproc() - 1);
}

std::vector<ColdStart> child_cold_starts(const Options& opts, int n) {
  std::vector<ColdStart> cold;
  if (opts.trace || opts.smoke || opts.setup_probe) return cold;
  const std::vector<std::string> args = {
      "/proc/self/exe", "--workload", opts.workload,
      "--seed", std::to_string(opts.seed), "--seconds", "1", "--trace", "0",
      "--setup-probe", "1"};
  for (int i = 0; i < n; ++i) {
    const std::string out = run_child(args);
    ColdStart c;
    const std::size_t pos = out.rfind("cold_start ");
    if (pos == std::string::npos ||
        std::sscanf(out.c_str() + pos, "cold_start %lf %lf", &c.seconds,
                    &c.rss_mb) != 2) {
      throw std::runtime_error("set-up probe printed no result: " + out);
    }
    cold.push_back(c);
  }
  return cold;
}

ColdStart finish_cold_start(std::chrono::steady_clock::time_point t0) {
  ColdStart c;
  c.seconds = seconds_since(t0);
  c.rss_mb = peak_rss_mb();
  reset_peak_rss();
  return c;
}

Report cold_start_report(const ColdStart& c) {
  Report r;
  r.set("setup_s", c.seconds, "s");
  r.set("peak_rss_mb", c.rss_mb, "MB");
  return r;
}

void note_run_facts(const Options& opts, Report* report) {
  report->note("workload %s seed %llu seconds %.3g trace %d nproc %d pool %d",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0, nproc(), run_threads(opts));
}

void report_end_to_end(const Options& opts, const WindowStats& w,
                       const std::vector<ColdStart>& cold,
                       double window_rss_mb, Report* report) {
  std::vector<double> seconds, rss;
  for (const ColdStart& c : cold) {
    seconds.push_back(c.seconds);
    rss.push_back(c.rss_mb);
  }
  const int64_t n = static_cast<int64_t>(w.latency_ms.size());
  report->set("setup_s", median(seconds), "s");
  report->set("throughput_per_s", w.throughput(), "1/s");
  report->set("latency_ms_p50", percentile(w.latency_ms, 0.5), "ms");
  report->set("latency_ms_p90", percentile(w.latency_ms, 0.9), "ms");
  report->set("peak_rss_mb", window_rss_mb, "MB");
  report->note("cold starts %zu: median %.3f s, median peak RSS %.1f MB; "
               "window peak RSS %.1f MB", cold.size(), median(seconds),
               median(rss), window_rss_mb);
  report->note("window %.3f s; latency samples %lld, %lld beyond p90%s",
               w.seconds, static_cast<long long>(n),
               static_cast<long long>(samples_beyond(n, 0.9)),
               tail_supported(n, 0.9) || opts.smoke ? ""
                                                    : " (too few for p90)");
}

void run_traced_window(const WindowFn& window, SpanLog& spans,
                       WindowStats* traced, Report* report) {
  saufno::obs::force_profile_kernels(true);
  WindowCounters counters;
  window(spans, traced);
  counters.finish();
  saufno::obs::force_profile_kernels(false);
  counters.report_runtime(report);
  report->attempted += traced->attempted;
  report->failed += traced->failed;
}

void report_trace(const Options& opts, const WindowStats& untraced,
                  const WindowStats& traced, const SpanLog& spans,
                  Report* report) {
  const double base = untraced.throughput();
  report->set("trace.overhead_pct",
              base > 0 ? (base - traced.throughput()) / base * 100.0 : 0.0,
              "%");
  const std::vector<Span> all = spans.spans();
  report->note("%zu spans recorded", all.size());
  for (const SpanTotals& t : totals_by_name(all)) {
    report->note("span %-28s count %6lld total %10.3f ms self %10.3f ms",
                 t.name.c_str(), static_cast<long long>(t.count), t.total_ms,
                 t.self_ms);
  }
  const std::string path = opts.workdir + "/spans_" + opts.workload + ".json";
  if (write_spans_json(path, all)) {
    report->note("spans written to %s", path.c_str());
  }
}

}  // namespace perfbench
