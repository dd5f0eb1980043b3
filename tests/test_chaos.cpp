// Chaos soak for the overload-safe serving stack: thousands of mixed
// requests and concurrent rollout sessions driven THROUGH injected faults
// (common/fault.h). The acceptance bar is liveness and isolation, not
// throughput: every future must resolve (value or typed error), no request
// may hang, no fault may take down the engine or a batch-mate, and the
// whole run must be ASan/TSan clean. Labeled `slow` in CMake; scale knobs
// respect SAUFNO_SCALE so the smoke lane stays fast.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault.h"
#include "common/rng.h"
#include "data/normalizer.h"
#include "data/sequence.h"
#include "runtime/inference_engine.h"
#include "runtime/rollout_engine.h"
#include "serve/client.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tensor/tensor.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

using runtime::InferenceEngine;
using runtime::RolloutEngine;
using runtime::RolloutSession;
using runtime::SubmitOptions;

struct FaultGuard {
  FaultGuard(const char* spec, std::uint64_t seed) {
    EXPECT_TRUE(fault::configure(spec, seed));
  }
  ~FaultGuard() { fault::clear(); }
};

bool all_finite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// Every client outcome lands in exactly one bucket; the soak asserts the
// buckets sum to the number of submits — i.e. no future was lost.
struct Tally {
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> faulted{0};    // RequestError / injected faults
  std::atomic<int64_t> shed{0};       // OverloadedError at submit
  std::atomic<int64_t> expired{0};    // DeadlineExceededError
  std::atomic<int64_t> cancelled{0};  // CancelledError
  std::atomic<int64_t> shutdown{0};   // ShutdownError (drain/stop races)
  int64_t total() const {
    return ok + faulted + shed + expired + cancelled + shutdown;
  }
};

TEST(Chaos, MixedRequestSoakEveryFutureResolves) {
  // >=5k requests (smoke scale) from 8 threads, three resolutions, a
  // sprinkle of deadlines and cancellations, under throw + delay faults in
  // the forward, gemm and allocation paths. The engine must classify every
  // single outcome — a lost future deadlocks this test and trips the ctest
  // TIMEOUT. A forward at these shapes evaluates `gemm` ~35 times and
  // `alloc` (every workspace Scratch, on worker threads and inside plan
  // compiles) ~3350 times. alloc's p = 0.002 * 47 / 3400 was sized when a
  // forward evaluated gemm ~47 times (the fused attention's block products
  // no longer go through gemm()), so the alloc rule faults ~9% of forwards
  // and the gemm rule ~7%.
  const int kThreads = 8;
  const int kPerThread = scaled(640, 2560);  // 5120 total at smoke
  FaultGuard fg(
      "forward:throw:p=0.02,gemm:throw:p=0.002,alloc:throw:p=0.0000275,"
      "delay:ms=1:p=0.002",
      20250807);

  InferenceEngine::Config cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 256;
  InferenceEngine engine(train::make_model("SAU-FNO", 3, 1, 42, 0), cfg);

  Tally tally;
  std::atomic<int64_t> submitted{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 7919 + 13);
      const int64_t res_choices[3] = {8, 10, 12};
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t res = res_choices[rng.next_below(3)];
        Tensor input = Tensor::randn({3, res, res}, rng);
        SubmitOptions opts;
        const std::uint64_t dice = rng.next_below(100);
        if (dice < 5) {
          // Tight deadline: may or may not make it — both are legal, but
          // it must never hang and never deliver late.
          opts.deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(1 + rng.next_below(5));
        }
        runtime::CancelToken token;
        if (dice >= 5 && dice < 10) {
          token = runtime::CancelToken::make();
          opts.cancel = token;
        }
        std::future<Tensor> fut;
        try {
          fut = engine.submit(std::move(input), opts);
          submitted.fetch_add(1);
        } catch (const runtime::OverloadedError&) {
          tally.shed.fetch_add(1);
          submitted.fetch_add(1);
          continue;
        } catch (const runtime::RequestError&) {
          tally.faulted.fetch_add(1);
          submitted.fetch_add(1);
          continue;
        }
        if (token.valid() && rng.next_below(2) == 0) token.request_cancel();
        try {
          const Tensor out = fut.get();
          EXPECT_TRUE(all_finite(out));
          tally.ok.fetch_add(1);
        } catch (const runtime::DeadlineExceededError&) {
          tally.expired.fetch_add(1);
        } catch (const runtime::CancelledError&) {
          tally.cancelled.fetch_add(1);
        } catch (const runtime::ShutdownError&) {
          tally.shutdown.fetch_add(1);
        } catch (const runtime::RequestError&) {
          tally.faulted.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(submitted.load(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(tally.total(), submitted.load())
      << "a future was lost or double-counted";
  // The faults were actually armed (the soak is vacuous otherwise) and the
  // engine survived them: the overwhelming majority of requests succeed.
  // Throws only: the all-site delay rule also fires at both sites.
  EXPECT_GT(fault::injected_throw_count("forward"), 0);
  EXPECT_GT(fault::injected_throw_count("alloc"), 0);
  EXPECT_GT(tally.ok.load(), submitted.load() / 2);
  EXPECT_EQ(tally.shutdown.load(), 0) << "engine shut itself down mid-soak";

  // Clean aftermath: faults off, a fresh request serves normally.
  fault::clear();
  Rng rng(99);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
  const auto s = engine.stats();
  EXPECT_EQ(s.requests + s.failed + s.expired + s.cancelled,
            submitted.load() - tally.shed.load() + 1);
  EXPECT_EQ(s.rejected, tally.shed.load());
}

TEST(Chaos, ConcurrentRolloutSessionsSurviveInjectedFaults) {
  // >=8 sessions x 20 steps under forward faults. A failed step throws out
  // of step(); the session stays re-submittable, so clients retry the same
  // power map until it lands. Every trajectory must complete with finite
  // physical state. The n=6 rule makes the first forwards throw
  // DETERMINISTICALLY (lockstep sessions coalesce into few batches, so a
  // purely probabilistic rule could legally never fire); the p-rule keeps
  // background pressure on for the rest of the run.
  const int kSessions = 8;
  const int kSteps = scaled(20, 60);
  const int64_t res = 10;
  FaultGuard fg("forward:throw:n=6,forward:throw:p=0.05", 424242);

  data::RolloutSpec spec;
  spec.dt = 0.01;
  spec.state_channels = 1;
  spec.power_channels = 1;
  auto model = train::make_model("SAU-FNO-micro", spec.in_channels(),
                                 spec.out_channels(), /*seed=*/7);
  const auto norm =
      data::Normalizer::from_stats(318.0, 3e4, 9.0, /*power_channels=*/1);
  RolloutEngine engine(model, norm, spec);

  std::atomic<int64_t> retries{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      auto session =
          engine.open_session(Tensor::full({1, res, res}, 318.f));
      Rng rng(static_cast<std::uint64_t>(s) * 104729 + 17);
      for (int k = 0; k < kSteps; ++k) {
        const Tensor power =
            Tensor::rand_uniform({1, res, res}, rng, 0.f, 9e4f);
        // A step that faults is retryable: await_step consumed the broken
        // future, so the session accepts the same submission again.
        for (int attempt = 0;; ++attempt) {
          ASSERT_LT(attempt, 200) << "session " << s << " step " << k
                                  << " never succeeded";
          try {
            const Tensor state = session->step(power.clone());
            ASSERT_EQ(state.shape(), (Shape{1, res, res}));
            EXPECT_TRUE(all_finite(state))
                << "session " << s << " produced non-finite state";
            break;
          } catch (const runtime::RequestError&) {
            retries.fetch_add(1);
          }
        }
      }
      EXPECT_EQ(session->steps_done(), kSteps);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_GT(fault::injected_count("forward"), 0);
  EXPECT_GT(retries.load(), 0) << "the 5% fault never fired";
}

// ---------------------------------------------------------------------------
// Over-the-wire chaos: client threads vs a FAULTED TCP server
// ---------------------------------------------------------------------------

/// Open fds in this process — the leak detector for the socket soak. Every
/// accepted connection costs the server one fd; a reap bug shows up here as
/// a monotonically growing count.
int open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n - 3;  // ".", "..", and the opendir fd itself
}

/// Raw loopback connect (no Client): the garbage-injection path needs a
/// socket the framing layer has never touched.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct WireTally {
  std::atomic<int64_t> infer_sent{0};      // well-formed infers, read back
  std::atomic<int64_t> infer_answered{0};  // responses received for them
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> typed_error{0};     // any non-ok, non-protocol code
  std::atomic<int64_t> garbage_conns{0};   // streams we deliberately garbled
  std::atomic<int64_t> garbage_rejected{0};  // ... answered kProtocol+close
  std::atomic<int64_t> abandoned{0};       // infers sent then conn dropped
};

/// The shared chaos driver: `threads` clients hammer a faulted server with
/// mixed well-formed traffic, garbage streams and mid-pipeline disconnects.
/// Invariants, per the ISSUE contract:
///   - every well-formed request on a connection the client keeps open gets
///     EXACTLY one response (value or typed error, never silence);
///   - every garbled stream gets a kProtocol response then a clean close;
///   - abrupt disconnects never poison other connections;
///   - after stop(), the process fd count returns to its baseline (no fd
///     leaked per connection, client or server side).
void run_wire_chaos(int threads, int sessions_per_thread,
                    const char* fault_spec, std::uint64_t seed) {
  // Warm process-wide singletons (thread pool, obs registry, one full
  // server lifecycle) BEFORE the fd baseline so lazily-created fds are not
  // misread as leaks from the soak itself.
  {
    serve::Fleet::Config fc;
    auto fleet = std::make_shared<serve::Fleet>(fc);
    InferenceEngine::Config ecfg;
    ecfg.max_batch = 4;
    ecfg.max_wait_us = 200;
    fleet->add_engine("warm", std::make_shared<InferenceEngine>(
                                  train::make_model("SAU-FNO", 3, 1, 42, 0),
                                  ecfg));
    serve::Server::Config scfg;
    scfg.default_model = "warm";
    serve::Server warm(fleet, scfg);
    warm.start();
    serve::Client c;
    c.connect("127.0.0.1", warm.port());
    Rng rng(seed);
    (void)c.infer(Tensor::randn({3, 8, 8}, rng));
    c.close();
    warm.stop();
  }
  const int fd_baseline = open_fd_count();
  ASSERT_GT(fd_baseline, 0);

  FaultGuard fg(fault_spec, seed);
  serve::Fleet::Config fc;
  auto fleet = std::make_shared<serve::Fleet>(fc);
  InferenceEngine::Config ecfg;
  ecfg.max_batch = 8;
  ecfg.max_wait_us = 200;
  ecfg.queue_capacity = 256;
  fleet->add_engine("sau-fno", std::make_shared<InferenceEngine>(
                                   train::make_model("SAU-FNO", 3, 1, 42, 0),
                                   ecfg));
  serve::Server::Config scfg;
  scfg.default_model = "sau-fno";
  scfg.quota_spec = "*=128";
  auto server = std::make_unique<serve::Server>(fleet, scfg);
  server->start();
  const std::uint16_t port = server->port();

  WireTally tally;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(seed + static_cast<std::uint64_t>(t) * 6151 + 3);
      const int64_t res_choices[3] = {8, 10, 12};
      for (int s = 0; s < sessions_per_thread; ++s) {
        const std::uint64_t dice = rng.next_below(10);
        if (dice == 0) {
          // Garbage stream: random bytes that are overwhelmingly NOT a
          // valid header. Contract: one kProtocol response, then EOF.
          const int fd = raw_connect(port);
          if (fd < 0) continue;
          tally.garbage_conns.fetch_add(1);
          std::uint8_t junk[24];
          for (auto& b : junk) {
            b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
          }
          junk[0] = 0xFF;  // never the magic's first byte
          (void)::send(fd, junk, sizeof(junk), MSG_NOSIGNAL);
          try {
            std::vector<std::uint8_t> body;
            if (serve::read_frame(fd, body)) {
              const serve::AnyFrame f =
                  serve::decode_frame(body.data(), body.size());
              if (f.kind == serve::FrameKind::kResponse &&
                  f.response.code == serve::WireCode::kProtocol &&
                  !serve::read_frame(fd, body)) {
                tally.garbage_rejected.fetch_add(1);
              }
            }
          } catch (const serve::ProtocolError&) {
            // Close raced the response write: acceptable, the connection
            // still terminated instead of wedging.
            tally.garbage_rejected.fetch_add(1);
          }
          ::close(fd);
          continue;
        }
        serve::Client c;
        try {
          c.connect("127.0.0.1", port);
        } catch (const std::exception&) {
          continue;  // accept raced stop(); not this test's concern
        }
        const int burst = 1 + static_cast<int>(rng.next_below(6));
        if (dice == 1) {
          // Abrupt disconnect: pipeline a burst, close without reading.
          // The server must drain the futures and release the quota slots
          // without wedging anyone else.
          for (int i = 0; i < burst; ++i) {
            try {
              c.send_infer(Tensor::randn({3, 8, 8}, rng));
              tally.abandoned.fetch_add(1);
            } catch (const serve::ProtocolError&) {
              break;
            }
          }
          c.close();
          continue;
        }
        // Well-formed burst: pipeline, then read every response back.
        int sent = 0;
        for (int i = 0; i < burst; ++i) {
          const int64_t res = res_choices[rng.next_below(3)];
          const std::uint32_t deadline =
              rng.next_below(20) == 0
                  ? 1 + static_cast<std::uint32_t>(rng.next_below(5))
                  : 0;
          try {
            c.send_infer(Tensor::randn({3, res, res}, rng), "", "default",
                         deadline);
            ++sent;
          } catch (const serve::ProtocolError&) {
            break;
          }
        }
        tally.infer_sent.fetch_add(sent);
        for (int i = 0; i < sent; ++i) {
          try {
            const serve::Response r = c.recv_response();
            tally.infer_answered.fetch_add(1);
            if (r.code == serve::WireCode::kOk) {
              EXPECT_TRUE(r.has_tensor);
              EXPECT_TRUE(all_finite(r.tensor));
              tally.ok.fetch_add(1);
            } else {
              EXPECT_NE(r.code, serve::WireCode::kProtocol)
                  << "well-formed frames must never classify as protocol "
                     "errors: "
                  << r.message;
              tally.typed_error.fetch_add(1);
            }
          } catch (const serve::ProtocolError& e) {
            ADD_FAILURE() << "client " << t << " lost a response: "
                          << e.what();
            break;
          }
        }
        c.close();
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(tally.infer_answered.load(), tally.infer_sent.load())
      << "every well-formed request on an open connection gets a response";
  EXPECT_GT(tally.ok.load(), 0);
  EXPECT_GT(fault::injected_count("forward"), 0)
      << "the chaos spec never fired; the soak is vacuous";
  EXPECT_EQ(tally.garbage_rejected.load(), tally.garbage_conns.load())
      << "a garbled stream was not answered-and-closed";

  EXPECT_GE(server->stats().protocol_errors, tally.garbage_conns.load());
  server->stop();
  EXPECT_EQ(server->stats().conns_active, 0)
      << "connections outlived their clients";
  server.reset();

  // The soak's server and every client socket are gone: fd-for-fd.
  const int fd_after = open_fd_count();
  EXPECT_EQ(fd_after, fd_baseline)
      << "fd leak: " << (fd_after - fd_baseline) << " descriptors";
}

TEST(WireChaosSmoke, FaultedServerAnswersOrCleanlyCloses) {
  // Tier-1 sized: enough traffic to hit the throw/delay/garbage/disconnect
  // paths, small enough for the ASan/TSan lanes. The full-size soak lives
  // in WireChaosSoak (ctest entry test_chaos_wire_soak, labeled `soak`).
  run_wire_chaos(/*threads=*/4, /*sessions_per_thread=*/6,
                 "forward:throw:p=0.05,gemm:throw:p=0.005,delay:ms=1:p=0.01",
                 20260807);
}

TEST(WireChaosSoak, ManyClientsVsFaultedServer) {
  run_wire_chaos(/*threads=*/8, /*sessions_per_thread=*/scaled(30, 150),
                 "forward:throw:p=0.05,gemm:throw:p=0.005,"
                 "delay:ms=2:p=0.02,forward:delay:ms=5:p=0.01",
                 424243);
}

}  // namespace
}  // namespace saufno
