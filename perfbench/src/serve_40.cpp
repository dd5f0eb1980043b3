// serve_40: two EDA optimizer jobs over TCP loopback. Each job is one
// serve::Client connection that sends a generation of 8 candidate maps and
// waits for all 8: job A on the paper's 40x40 low-fidelity grid (the
// Bluestein FFT path, 40 is not a power of two), job B on 32x32. The
// server's Fleet hot-loads a v2 checkpoint; the shape-sharded queue runs
// two live shards.

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "probes.h"
#include "runtime/errors.h"
#include "runtime/inference_engine.h"
#include "serve/client.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "train/model_zoo.h"
#include "workloads.h"

namespace perfbench {
namespace {

using saufno::runtime::InferenceEngine;
namespace serve = saufno::serve;

constexpr int kBatch = 8;
constexpr int kInputPool = 32;
constexpr int64_t kResA = 40;
constexpr int64_t kResB = 32;
constexpr double kWarmSeconds = 2.0;
const char* const kModel = "sau";

InferenceEngine::Config engine_config() {
  InferenceEngine::Config cfg;
  cfg.max_batch = kBatch;
  cfg.max_wait_us = 50000;  // a generation of 8 pops as soon as it is whole
  cfg.pad_to_full_batch = true;
  cfg.plan_mode = static_cast<int>(saufno::plan::Mode::kOn);
  return cfg;
}

/// A live server over a Fleet that hot-loads the checkpoint.
struct Service {
  std::shared_ptr<serve::Fleet> fleet;
  std::unique_ptr<serve::Server> server;

  explicit Service(const std::string& ckpt) {
    serve::Fleet::Config fc;
    fc.engine = engine_config();
    fleet = std::make_shared<serve::Fleet>(fc);
    fleet->register_checkpoint(kModel, ckpt);
    serve::Server::Config sc;
    sc.default_model = kModel;
    server = std::make_unique<serve::Server>(fleet, sc);
    server->start();
  }
  ~Service() {
    if (server) server->stop();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
};

/// One optimizer job: its grid, its input pool and its generations.
struct Job {
  int64_t res = 0;
  std::vector<Tensor> pool;
  saufno::Rng rng{1};
  std::vector<std::vector<int>> gen_inputs;
  std::vector<std::vector<Tensor>> gen_outputs;  // undefined = failed

  std::vector<int> draw() {
    std::vector<int> idx(kBatch);
    for (int& i : idx) i = static_cast<int>(rng.next_below(pool.size()));
    return idx;
  }
};

/// One generation over the job's connection. A lost connection fails every
/// map of the generation still unanswered and closes the client.
void run_generation(serve::Client& c, Job& job, SpanLog& spans, int64_t gen_id,
                    WindowStats* stats) {
  const std::vector<int> idx = job.draw();
  std::vector<Tensor> outs(idx.size());
  ScopedSpan root(spans, "generation", -1, gen_id);
  std::vector<std::chrono::steady_clock::time_point> sent(idx.size());
  stats->attempted += static_cast<int64_t>(idx.size());
  std::size_t answered = 0;
  try {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      ScopedSpan s(spans, "serve.send_infer", root.id(), gen_id);
      sent[i] = std::chrono::steady_clock::now();
      c.send_infer(job.pool[static_cast<std::size_t>(idx[i])]);
    }
    for (; answered < idx.size(); ++answered) {
      ScopedSpan s(spans, "serve.recv_response", root.id(), gen_id);
      serve::Response r = c.recv_response();
      if (r.ok() && r.has_tensor) {
        outs[answered] = r.tensor;
        stats->latency_ms.push_back(ms_since(sent[answered]));
      } else {
        ++stats->failed;  // typed error: overloaded, watchdog, ...
      }
    }
  } catch (const std::exception&) {
    stats->failed += static_cast<int64_t>(idx.size() - answered);
    c.close();
  }
  job.gen_inputs.push_back(idx);
  job.gen_outputs.push_back(std::move(outs));
}

/// Both jobs' generations, one thread per connection, until `clock` says
/// the window is done.
void run_jobs(std::vector<Job>& jobs, std::vector<serve::Client>& clients,
              SpanLog& spans, const WindowClock& clock, WindowStats* stats) {
  std::vector<WindowStats> per(jobs.size());
  std::atomic<int64_t> samples{0};
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&, j] {
      for (int64_t g = 0; clients[j].connected(); ++g) {
        const std::size_t before = per[j].latency_ms.size();
        run_generation(clients[j], jobs[j], spans,
                       static_cast<int64_t>(j) << 32 | g, &per[j]);
        samples += static_cast<int64_t>(per[j].latency_ms.size() - before);
        if (clock.done(samples.load())) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  stats->seconds = clock.elapsed();
  for (const auto& p : per) {
    stats->attempted += p.attempted;
    stats->failed += p.failed;
    stats->latency_ms.insert(stats->latency_ms.end(), p.latency_ms.begin(),
                             p.latency_ms.end());
  }
}

std::vector<serve::Client> connect(const Service& svc, std::size_t n) {
  std::vector<serve::Client> clients(n);
  for (auto& c : clients) c.connect("127.0.0.1", svc.server->port());
  return clients;
}

/// Replays generations in process: `gens[j]` lists job j's generation
/// indices, run concurrently per job as over TCP. Every output is compared
/// bitwise with the TCP response; returns the per-map submit latencies.
std::vector<double> replay_in_process(InferenceEngine& engine,
                                      const std::vector<Job>& jobs,
                                      const std::vector<std::vector<std::size_t>>& gens,
                                      Report* report) {
  std::vector<std::vector<double>> lat(jobs.size());
  std::vector<int64_t> mismatches(jobs.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&, j] {
      for (std::size_t g : gens[j]) {
        const auto& idx = jobs[j].gen_inputs[g];
        const auto& tcp = jobs[j].gen_outputs[g];
        std::vector<std::future<Tensor>> futs;
        std::vector<std::chrono::steady_clock::time_point> sent;
        try {
          for (int i : idx) {
            sent.push_back(std::chrono::steady_clock::now());
            futs.push_back(engine.submit(jobs[j].pool[static_cast<std::size_t>(i)]));
          }
        } catch (const std::exception&) {
          ++mismatches[j];  // the reference itself failed
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
          try {
            const Tensor out = futs[i].get();
            lat[j].push_back(ms_since(sent[i]));
            if (tcp[i].defined() && !same_bits(out, tcp[i])) ++mismatches[j];
          } catch (const std::exception&) {
            ++mismatches[j];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> all;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (mismatches[j] > 0) {
      report->mismatch("serve_40 job " + std::to_string(j) + ": " +
                       std::to_string(mismatches[j]) +
                       " TCP responses differ from in-process submit or "
                       "could not be checked");
    }
    all.insert(all.end(), lat[j].begin(), lat[j].end());
  }
  return all;
}

}  // namespace

std::vector<std::size_t> serve_check_sample(std::size_t generations,
                                            bool traced, saufno::Rng& pick) {
  std::vector<std::size_t> out;
  if (generations == 0) return out;
  if (traced) {
    for (std::size_t g = 0; g < std::min<std::size_t>(generations, 12); ++g) {
      out.push_back(g);
    }
  } else {
    out = {0, static_cast<std::size_t>(pick.next_below(generations))};
  }
  return out;
}

Report run_serve_40(const Options& opts) {
  Report report;
  note_run_facts(opts, &report);
  const int64_t cin = chip1_power_channels() + 2;
  const std::string ckpt = opts.workdir + "/serve_40.ckpt";
  {
    auto model = saufno::train::make_model("SAU-FNO", cin, chip1_power_channels(),
                                           kWeightSeed);
    saufno::train::save_deployable(*model, "SAU-FNO", cin,
                                   chip1_power_channels(), chip1_normalizer(),
                                   ckpt);
  }
  std::vector<Job> jobs(2);
  jobs[0].res = kResA;
  jobs[1].res = kResB;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].pool = chip1_model_inputs(jobs[j].res, kInputPool, opts.seed + j);
    jobs[j].rng = saufno::Rng(opts.seed * 31 + j);
  }
  SpanLog off(false);

  // Set-up: server + fleet hot-load of the checkpoint to the first result
  // of both shapes over TCP. This process's own cold start serves the
  // window; two more are timed in child processes.
  std::vector<ColdStart> cold = child_cold_starts(opts, 2);
  const auto t0 = std::chrono::steady_clock::now();
  auto svc = std::make_unique<Service>(ckpt);
  std::vector<serve::Client> clients = connect(*svc, jobs.size());
  WindowStats warm;
  for (std::size_t j = 0; j < jobs.size(); ++j) {  // one shape at a time
    run_generation(clients[j], jobs[j], off, -1, &warm);
  }
  cold.push_back(finish_cold_start(t0));
  if (opts.setup_probe) return cold_start_report(cold.back());
  {
    // Both jobs together for a few generations before the clock starts, so
    // the window opens with the two shards' batches already alternating.
    Options warm = opts;
    warm.seconds = kWarmSeconds;
    warm.trace = false;
    warm.smoke = true;
    WindowStats discard;
    run_jobs(jobs, clients, off, WindowClock(warm), &discard);
  }
  for (auto& j : jobs) {
    j.gen_inputs.clear();
    j.gen_outputs.clear();
  }

  const WindowFn window = [&](SpanLog& spans, WindowStats* stats) {
    const WindowClock clock(opts);
    run_jobs(jobs, clients, spans, clock, stats);
  };
  WindowStats w;
  WindowCounters counters;
  window(off, &w);
  counters.finish();
  const double rss = peak_rss_mb();
  report.attempted = w.attempted;
  report.failed = w.failed;
  report.note("timed window: plan-cache misses %.0f, FFT-plan-cache misses %.0f",
              counters.plan_misses(), counters.fft_plan_misses());

  WindowStats traced;
  SpanLog spans(opts.trace);
  if (opts.trace) run_traced_window(window, spans, &traced, &report);
  const auto server_stats = svc->server->stats();
  const double batch_avg = svc->fleet->acquire(kModel)->stats().avg_batch_size;
  clients.clear();
  svc.reset();

  // Correctness: sampled generations of each job, bit-identical to
  // in-process submit of the same maps on an engine from the same file.
  auto engine = InferenceEngine::from_checkpoint(ckpt, engine_config());
  saufno::Rng pick(opts.seed ^ 0xc0ffeeULL);
  std::vector<std::vector<std::size_t>> sample(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sample[j] = serve_check_sample(jobs[j].gen_inputs.size(), opts.trace, pick);
    if (sample[j].empty()) {
      report.note("serve_40 job %zu: connection lost before the window, no "
                  "generation to check", j);
    }
  }
  const std::vector<double> in_process =
      replay_in_process(*engine, jobs, sample, &report);

  if (!opts.trace) {
    report_end_to_end(opts, w, cold, rss, &report);
    return report;
  }
  counters.report_misses(&report);
  report.set("runtime.batch_size_avg", batch_avg, "count");
  report.set("serve.overhead_ms",
             median(w.latency_ms) - median(in_process), "ms");
  report.set("serve.protocol_errors",
             static_cast<double>(server_stats.protocol_errors), "count");
  report.set("serve.quota_rejected",
             static_cast<double>(server_stats.quota_rejected), "count");
  {
    serve::Fleet::Config fc;
    fc.engine = engine_config();
    serve::Fleet fleet(fc);
    fleet.register_checkpoint(kModel, ckpt);
    const auto t0 = std::chrono::steady_clock::now();
    (void)fleet.acquire(kModel);
    report.set("serve.hot_load_ms", ms_since(t0), "ms");
  }
  report_trace(opts, w, traced, spans, &report);

  LayerProbe probe;
  probe.model = saufno::train::load_deployable(ckpt).model;
  for (int i : jobs[0].draw()) {
    probe.engine_inputs.push_back(jobs[0].pool[static_cast<std::size_t>(i)]);
  }
  probe.batch = chip1_normalizer().encode_inputs(stack(probe.engine_inputs));
  probe.engine = engine.get();
  probe_layers(probe, run_threads(opts), &report);
  return report;
}

}  // namespace perfbench
