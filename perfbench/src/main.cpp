// Repository benchmark driver. One run = one workload:
//
//   perfbench --workload <sweep_64|serve_40> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke 1]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) the per-layer metrics. Notes go to stdout first; the last
// line is the JSON result with every metric the run set. run.py keeps the
// ones BENCHMARK.json lists. Exit status is non-zero when an output check
// fails or the arguments are bad.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      o->trace = std::strtol(v, &end, 10) != 0;
    } else if (k == "--smoke") {
      o->smoke = std::strtol(v, &end, 10) != 0;
    } else if (k == "--setup-probe") {
      o->setup_probe = std::strtol(v, &end, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", k.c_str(), v);
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --name value pairs\n");
    return false;
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sweep_64|serve_40> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke 0|1]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opts.workdir.c_str());
    return 2;
  }
  saufno::runtime::ThreadPool::instance().resize(perfbench::run_threads(opts));

  Report report;
  try {
    if (opts.workload == "sweep_64") {
      report = perfbench::run_sweep_64(opts);
    } else if (opts.workload == "serve_40") {
      report = perfbench::run_serve_40(opts);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opts.setup_probe) {
    std::printf("cold_start %.17g %.17g\n", report.metrics.at(0).value,
                report.metrics.at(1).value);
    return 0;
  }
  report.note("operations attempted %lld failed %lld (%.4f%%)",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.attempted > 0 ? 100.0 * static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0);
  for (const std::string& n : report.notes) std::printf("# %s\n", n.c_str());
  if (report.attempted < 1) {
    std::fprintf(stderr, "perfbench %s: incomplete result\n",
                 opts.workload.c_str());
    return 1;
  }
  std::printf("%s\n", report.result_json().c_str());
  if (!report.correct) {
    std::fprintf(stderr, "perfbench %s: output check failed\n",
                 opts.workload.c_str());
    return 1;
  }
  return 0;
}
