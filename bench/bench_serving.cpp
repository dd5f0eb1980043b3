// End-to-end load generator for the TCP serving frontend (src/serve/).
//
// Three phases, all over REAL loopback sockets (frame codec, reader/
// completer threads, tenant quotas — the full wire path, not an in-process
// shortcut):
//
//   1. saturation: closed-loop pipelined clients push the server as hard as
//      the socket allows; the measured ceiling anchors the open-loop rates.
//   2. steady: open-loop POISSON arrivals at ~70% of saturation with mixed
//      resolutions and a skewed tenant distribution — the paper's
//      steady-state thermal-monitoring traffic.
//   3. rollout: the same arrival process but bursty — each "session" sends
//      a back-to-back run of same-shape steps (transient rollout traffic),
//      so per-shape batches form and die repeatedly.
//
// Open-loop means arrival i is DUE at its scheduled instant no matter how
// the server is doing; a slow server grows latency (and eventually sheds),
// it does not slow the generator down. Latency is recorded per request from
// send() to response receipt and percentiles are EXACT (full sample sort,
// no histogram error) — at the default 1M+ requests that is an 8 MB sort,
// well worth the precision.
//
// The default (no-flag) run drives >= 1M open-loop requests. `--smoke` (or
// SAUFNO_SMOKE=1) shrinks the counts for CI and turns the SLO checks into
// hard failures: p99 of the steady phase must clear SAUFNO_SERVING_SLO_MS
// (default 750 ms), every request must be answered, and the error rate must
// stay under 1%.
//
// Results land in BENCH_serving.json (BENCH_serving.smoke.json under
// --smoke), rewritten wholesale:
//   saturation_rps, per-phase {requests, offered/achieved rps, ok/shed/
//   errors, p50/p99/p99.9/max ms}, tenant mix.
//
// Knobs: SAUFNO_SERVING_N (total open-loop requests), SAUFNO_SERVING_CONNS
// (client connections), SAUFNO_SERVING_UTIL (fraction of saturation to
// offer, default 0.7), SAUFNO_SERVING_SLO_MS, SAUFNO_TENANT_SKEW
// (hot-tenant share, default 0.8), SAUFNO_SCALE=paper for the larger model.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "runtime/inference_engine.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

using clock_t_ = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || v[0] == '\0') ? fallback : std::atof(v);
}

struct PhaseResult {
  std::string name;
  int threads = 0;  // pool size while the phase ran (the pool is resized
                    // to 1 before JSON writing, so record it here)
  int64_t requests = 0;
  int64_t ok = 0;
  int64_t shed = 0;     // kOverloaded (quota or queue)
  int64_t errors = 0;   // every other non-ok code
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // responses per second of generator wall time
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

/// Exact percentiles by full sort — the whole point of storing every
/// latency sample.
void fill_percentiles(std::vector<double>& lat, PhaseResult* r) {
  if (lat.empty()) return;
  std::sort(lat.begin(), lat.end());
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(lat.size() - 1) + 0.5);
    return lat[std::min(idx, lat.size() - 1)];
  };
  r->p50_ms = at(0.50);
  r->p99_ms = at(0.99);
  r->p999_ms = at(0.999);
  r->max_ms = lat.back();
}

struct Workload {
  std::vector<Tensor> maps;       // request templates, cycled per shape mix
  std::vector<std::string> tenants;
  double hot_share = 0.8;         // P(request comes from tenants[0])
  int burst_len = 1;              // same-map run length (rollout sessions)
};

/// Mixed-resolution request templates: mostly the small steady-state grid,
/// a tail of the larger one — enough shape diversity that the server's
/// per-shape shards actually multiplex.
Workload make_workload(int64_t res_a, int64_t res_b, int burst_len,
                       double hot_share, std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    const int64_t res = (i % 4 == 3) ? res_b : res_a;  // 25% large
    w.maps.push_back(Tensor::randn({3, res, res}, rng));
  }
  w.tenants = {"hot", "warm-1", "warm-2", "cold-1", "cold-2"};
  w.hot_share = hot_share;
  w.burst_len = burst_len;
  return w;
}

/// One open-loop generator connection: the sender fires requests at their
/// Poisson-scheduled instants; the receiver timestamps responses. A Client
/// is not thread-safe in general, but this split is: the sender only
/// touches send_*/the write side, the receiver only recv_response/the read
/// side, and request ids are sequential so `sent_at[id]` needs no lock.
void run_conn_open_loop(std::uint16_t port, const Workload& w,
                        int64_t n_requests, double rate_rps,
                        std::uint64_t seed, std::vector<double>* latencies,
                        PhaseResult* tally, std::atomic<int64_t>* lost) {
  serve::Client c;
  c.connect("127.0.0.1", port);
  // Send timestamps cross from the sender to the receiver thread; atomics
  // (relaxed is enough — the socket round trip orders the accesses, the
  // atomic just makes the handoff formal) keep the bench TSan-clean.
  std::vector<std::atomic<int64_t>> sent_at(
      static_cast<std::size_t>(n_requests) + 1);

  std::atomic<int64_t> ok{0}, shed{0}, errors{0};
  latencies->reserve(static_cast<std::size_t>(n_requests));
  std::thread receiver([&] {
    for (int64_t i = 0; i < n_requests; ++i) {
      serve::Response r;
      try {
        r = c.recv_response();
      } catch (const serve::ProtocolError&) {
        lost->fetch_add(n_requests - i);
        return;
      }
      const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 clock_t_::now().time_since_epoch())
                                 .count();
      if (r.code == serve::WireCode::kOk) {
        ok.fetch_add(1);
        const int64_t sent_ns =
            sent_at[r.id].load(std::memory_order_relaxed);
        latencies->push_back(static_cast<double>(now_ns - sent_ns) * 1e-6);
      } else if (r.code == serve::WireCode::kOverloaded) {
        shed.fetch_add(1);
      } else {
        errors.fetch_add(1);
      }
    }
  });

  Rng rng(seed);
  const double mean_gap_s = 1.0 / rate_rps;
  const auto t0 = clock_t_::now();
  double due_s = 0.0;
  std::size_t map_idx = 0;
  int in_burst = 0;
  for (int64_t i = 0; i < n_requests; ++i) {
    // Poisson process: exponential inter-arrival gaps, exact schedule.
    const double u =
        (static_cast<double>(rng.next_u64() >> 11) + 1.0) / 9007199254740993.0;
    due_s += -std::log(u) * mean_gap_s;
    const auto due = t0 + std::chrono::duration_cast<clock_t_::duration>(
                              std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    if (in_burst == 0) {
      map_idx = rng.next_below(w.maps.size());
      in_burst = w.burst_len;
    }
    --in_burst;  // rollout mix: burst_len same-shape sends back to back
    const std::string& tenant =
        (static_cast<double>(rng.next_below(1000)) / 1000.0 < w.hot_share)
            ? w.tenants[0]
            : w.tenants[1 + rng.next_below(w.tenants.size() - 1)];
    sent_at[static_cast<std::size_t>(i) + 1].store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock_t_::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    c.send_infer(w.maps[map_idx].clone(), "", tenant);
  }
  const double gen_s =
      std::chrono::duration<double>(clock_t_::now() - t0).count();
  receiver.join();
  c.close();

  // Per-connection tallies merge under the caller's lock-free scheme: each
  // connection owns its own PhaseResult slot.
  tally->requests = n_requests;
  tally->ok = ok.load();
  tally->shed = shed.load();
  tally->errors = errors.load();
  tally->offered_rps = rate_rps;
  tally->achieved_rps = gen_s > 0 ? static_cast<double>(n_requests) / gen_s : 0;
}

PhaseResult run_open_loop_phase(const std::string& name, std::uint16_t port,
                                const Workload& w, int conns,
                                int64_t total_requests, double rate_rps,
                                std::uint64_t seed) {
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(conns));
  std::vector<PhaseResult> per_conn(static_cast<std::size_t>(conns));
  std::atomic<int64_t> lost{0};
  std::vector<std::thread> threads;
  const int64_t per = total_requests / conns;
  for (int t = 0; t < conns; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    threads.emplace_back([&, t, ti] {
      run_conn_open_loop(port, w, per, rate_rps / conns,
                         seed + static_cast<std::uint64_t>(t) * 7919,
                         &latencies[ti], &per_conn[ti], &lost);
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult r;
  r.name = name;
  r.threads = runtime::ThreadPool::instance().num_threads();
  std::vector<double> all;
  for (int t = 0; t < conns; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    r.requests += per_conn[ti].requests;
    r.ok += per_conn[ti].ok;
    r.shed += per_conn[ti].shed;
    r.errors += per_conn[ti].errors;
    r.offered_rps += per_conn[ti].offered_rps;
    r.achieved_rps += per_conn[ti].achieved_rps;
    all.insert(all.end(), latencies[ti].begin(), latencies[ti].end());
  }
  r.errors += lost.load();  // a dropped connection counts against the server
  fill_percentiles(all, &r);
  return r;
}

/// Closed-loop saturation probe: `conns` connections keep `window` requests
/// pipelined each; responses/second over the steady window IS the ceiling
/// (TCP backpressure throttles the senders at the server's natural rate).
double run_saturation(std::uint16_t port, const Workload& w, int conns,
                      int64_t per_conn, int window, std::uint64_t seed) {
  std::atomic<int64_t> served{0};
  std::vector<std::thread> threads;
  const auto t0 = clock_t_::now();
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c;
      c.connect("127.0.0.1", port);
      Rng rng(seed + static_cast<std::uint64_t>(t));
      int64_t sent = 0, recvd = 0;
      while (recvd < per_conn) {
        while (sent < per_conn && sent - recvd < window) {
          c.send_infer(w.maps[rng.next_below(w.maps.size())].clone(), "",
                       "hot");
          ++sent;
        }
        (void)c.recv_response();
        ++recvd;
        served.fetch_add(1);
      }
      c.close();
    });
  }
  for (auto& t : threads) t.join();
  const double secs = std::chrono::duration<double>(clock_t_::now() - t0).count();
  return secs > 0 ? static_cast<double>(served.load()) / secs : 0.0;
}

void phase_json(JsonWriter* jw, const PhaseResult& r) {
  jw->key(r.name);
  jw->begin_object();
  jw->field("threads", r.threads);
  jw->field("requests", r.requests);
  jw->field("ok", r.ok);
  jw->field("shed", r.shed);
  jw->field("errors", r.errors);
  jw->field("offered_rps", r.offered_rps, 1);
  jw->field("achieved_rps", r.achieved_rps, 1);
  jw->field("latency_p50_ms", r.p50_ms, 3);
  jw->field("latency_p99_ms", r.p99_ms, 3);
  jw->field("latency_p999_ms", r.p999_ms, 3);
  jw->field("latency_max_ms", r.max_ms, 3);
  jw->end_object();
}

void print_phase(const PhaseResult& r) {
  std::printf("%-10s %9lld req  offered %8.0f r/s  achieved %8.0f r/s\n",
              r.name.c_str(), static_cast<long long>(r.requests),
              r.offered_rps, r.achieved_rps);
  std::printf("           ok %lld, shed %lld, errors %lld\n",
              static_cast<long long>(r.ok), static_cast<long long>(r.shed),
              static_cast<long long>(r.errors));
  std::printf("           p50 %.2f ms  p99 %.2f ms  p99.9 %.2f ms  max %.2f "
              "ms\n",
              r.p50_ms, r.p99_ms, r.p999_ms, r.max_ms);
}

}  // namespace
}  // namespace saufno

int main(int argc, char** argv) {
  using namespace saufno;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* smoke_env = std::getenv("SAUFNO_SMOKE");
  if (smoke_env != nullptr && smoke_env[0] != '\0' && smoke_env[0] != '0') {
    smoke = true;
  }

  // The micro model keeps per-request compute small enough that the DEFAULT
  // run pushes >= 1M requests through the socket path in minutes — this
  // bench measures the serving stack, not the spectral kernels (bench_fno
  // does that). Paper scale swaps in the full model on a bigger grid.
  const bool paper = bench_scale() == Scale::kPaper;
  const char* model_name = paper ? "SAU-FNO" : "SAU-FNO-micro";
  const int64_t res_a = paper ? 32 : 12;
  const int64_t res_b = paper ? 48 : 16;
  const int conns = env_int("SAUFNO_SERVING_CONNS", 8);
  const int64_t total_n = static_cast<int64_t>(env_int(
      "SAUFNO_SERVING_N", smoke ? 6000 : 1000000));
  const double util = env_double("SAUFNO_SERVING_UTIL", 0.7);
  const double slo_ms = env_double("SAUFNO_SERVING_SLO_MS", 750.0);
  const double hot_share = env_double("SAUFNO_TENANT_SKEW", 0.8);

  runtime::ThreadPool::instance().resize(env_int("SAUFNO_NUM_THREADS", 4));

  serve::Fleet::Config fc;
  auto fleet = std::make_shared<serve::Fleet>(fc);
  runtime::InferenceEngine::Config ecfg;
  ecfg.max_batch = 16;
  ecfg.max_wait_us = 500;
  ecfg.queue_capacity = 4096;
  fleet->add_engine("bench", std::make_shared<runtime::InferenceEngine>(
                                 train::make_model(model_name, 3, 1, 42, 0),
                                 ecfg));
  serve::Server::Config scfg;
  scfg.default_model = "bench";
  scfg.max_conns = conns + 4;
  scfg.max_pipelined = 4096;
  // The hot tenant gets a deep in-flight budget, cold tenants the default:
  // realistic skew, and the quota layer is actually on the hot path.
  scfg.quota_spec = "hot=4096,*=1024";
  serve::Server server(fleet, scfg);
  server.start();

  std::printf("== serving: open-loop load over TCP loopback (%s scale) ==\n",
              scale_name(bench_scale()));
  std::printf("model %s, grids %lldx%lld/%lldx%lld, %d connections, "
              "%lld open-loop requests, tenant skew hot=%.2f\n\n",
              model_name, static_cast<long long>(res_a),
              static_cast<long long>(res_a), static_cast<long long>(res_b),
              static_cast<long long>(res_b), conns,
              static_cast<long long>(total_n), hot_share);

  const Workload steady_w = make_workload(res_a, res_b, /*burst_len=*/1,
                                          hot_share, /*seed=*/11);
  const Workload rollout_w = make_workload(res_a, res_b, /*burst_len=*/16,
                                           hot_share, /*seed=*/13);

  // Phase 1: saturation (with a warmup pass so plan compilation and arena
  // warmup are off the books).
  const int64_t sat_per_conn = smoke ? 150 : 4000;
  (void)run_saturation(server.port(), steady_w, conns, sat_per_conn / 4, 32,
                       3);
  const double sat_rps =
      run_saturation(server.port(), steady_w, conns, sat_per_conn, 32, 5);
  std::printf("saturation: %.0f req/s closed-loop (%d conns x %lld req)\n\n",
              sat_rps, conns, static_cast<long long>(sat_per_conn));

  // Phases 2+3: open-loop Poisson at util x saturation. 60/40 steady vs
  // rollout split of the request budget.
  const double rate = util * sat_rps;
  const int64_t steady_n = total_n * 6 / 10;
  const int64_t rollout_n = total_n - steady_n;
  const PhaseResult steady = run_open_loop_phase(
      "steady", server.port(), steady_w, conns, steady_n, rate, 101);
  print_phase(steady);
  const PhaseResult rollout = run_open_loop_phase(
      "rollout", server.port(), rollout_w, conns, rollout_n, rate, 202);
  print_phase(rollout);

  const auto stats = server.stats();
  const int serve_threads = runtime::ThreadPool::instance().num_threads();
  server.stop();
  runtime::ThreadPool::instance().resize(1);

  JsonWriter jw;
  jw.begin_object();
  jw.field("scale", scale_name(bench_scale()));
  jw.field("model", model_name);
  jw.field("threads", serve_threads);
  jw.field("connections", conns);
  jw.field("tenant_hot_share", hot_share, 2);
  jw.field("utilization_target", util, 2);
  jw.field("saturation_rps", sat_rps, 1);
  phase_json(&jw, steady);
  phase_json(&jw, rollout);
  jw.key("server");
  jw.begin_object();
  jw.field("conns_accepted", stats.conns_accepted);
  jw.field("requests", stats.requests);
  jw.field("responses", stats.responses);
  jw.field("quota_rejected", stats.quota_rejected);
  jw.field("protocol_errors", stats.protocol_errors);
  jw.end_object();
  jw.end_object();
  if (!jw.write_file(smoke ? "BENCH_serving.smoke.json"
                           : "BENCH_serving.json")) {
    return 1;
  }

  if (smoke) {
    // CI gates: the serving stack must answer EVERYTHING it was offered,
    // barely error at 70%% utilization, and hold the p99 SLO.
    const int64_t answered =
        steady.ok + steady.shed + steady.errors + rollout.ok + rollout.shed +
        rollout.errors;
    if (answered != steady.requests + rollout.requests) {
      std::printf("FAIL: %lld of %lld requests never answered\n",
                  static_cast<long long>(steady.requests + rollout.requests -
                                         answered),
                  static_cast<long long>(steady.requests + rollout.requests));
      return 1;
    }
    const double err_rate =
        static_cast<double>(steady.errors + rollout.errors) /
        static_cast<double>(steady.requests + rollout.requests);
    if (err_rate > 0.01) {
      std::printf("FAIL: error rate %.2f%% exceeds 1%%\n", err_rate * 100);
      return 1;
    }
    if (steady.p99_ms > slo_ms) {
      std::printf("FAIL: steady p99 %.2f ms exceeds SLO %.0f ms\n",
                  steady.p99_ms, slo_ms);
      return 1;
    }
    std::printf("smoke gates passed: p99 %.2f ms <= SLO %.0f ms, "
                "error rate %.3f%%\n",
                steady.p99_ms, slo_ms, err_rate * 100);
  }
  return 0;
}
