#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/spectral_ops.h"
#include "fft/fft.h"
#include "obs/metrics.h"
#include "runtime/request_queue.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace {

using runtime::ThreadPool;
using runtime::parallel_for;
using runtime::parallel_sum;

/// RAII thread-count override so a failing assertion cannot leak a resized
/// pool into later tests.
struct PoolSize {
  explicit PoolSize(int n) { ThreadPool::instance().resize(n); }
  ~PoolSize() { ThreadPool::instance().resize(1); }
};

TEST(ThreadPool, ResizeReportsLanes) {
  PoolSize guard(4);
  EXPECT_EQ(ThreadPool::instance().num_threads(), 4);
  ThreadPool::instance().resize(1);
  EXPECT_EQ(ThreadPool::instance().num_threads(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolSize guard(4);
  constexpr int64_t kN = 10007;  // prime, so chunks never divide evenly
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(3, kN, 17, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
  for (int64_t i = 3; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  PoolSize guard(2);
  int calls = 0;
  parallel_for(5, 5, 4, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, 100, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsCoverEveryIndex) {
  PoolSize guard(4);
  std::atomic<int> total{0};
  parallel_for(0, 8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested loops decompose onto the pool (they no longer serialize);
      // coverage must still be exact.
      parallel_for(0, 10, 1, [&](int64_t nb, int64_t ne) {
        total += static_cast<int>(ne - nb);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ParallelFor, SixNestedLevelsCoverEveryIndexAndMatchPoolOne) {
  // Every level decomposes onto the pool. Six levels of 3 chunks each
  // address 3^6 leaves; each leaf must write its own slot exactly once, and
  // the output must match pool 1 bit for bit.
  constexpr int kLevels = 6, kFan = 3, kLeaves = 729;  // kFan^kLevels
  auto compute = [&] {
    std::vector<std::atomic<int>> hits(kLeaves);
    for (auto& h : hits) h.store(0);
    std::vector<float> out(kLeaves, 0.0f);
    std::function<void(int, int64_t)> level = [&](int depth, int64_t base) {
      parallel_for(0, kFan, 1, [&, depth, base](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          const int64_t idx = base * kFan + i;
          if (depth + 1 < kLevels) {
            level(depth + 1, idx);
          } else {
            hits[static_cast<std::size_t>(idx)]++;
            out[static_cast<std::size_t>(idx)] =
                std::sqrt(static_cast<float>(idx)) * 0.37f + 1.0f;
          }
        }
      });
    };
    level(0, 0);
    for (int64_t i = 0; i < kLeaves; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "leaf " << i;
    }
    return out;
  };
  ThreadPool::instance().resize(1);
  const std::vector<float> ref = compute();
  PoolSize guard(4);
  const std::vector<float> got = compute();
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(float) * ref.size()), 0);
}

TEST(ParallelFor, SubmitsOneTaskPerExtraLaneUpToChunksMinusOne) {
  // perfbench's runtime.pool.tasks_per_forward divides pool.tasks_submitted
  // by plan.runs, so a decomposed loop must queue exactly
  // min(lanes - 1, chunks - 1) helpers, and an inline one none.
  obs::Counter& submitted = obs::counter("pool.tasks_submitted");
  auto tasks_for = [&](int64_t chunks) {
    const int64_t before = submitted.value();
    parallel_for(0, chunks, 1, [](int64_t, int64_t) {});
    return submitted.value() - before;
  };
  {
    PoolSize guard(4);
    EXPECT_EQ(tasks_for(1), 0);
    EXPECT_EQ(tasks_for(2), 1);
    EXPECT_EQ(tasks_for(3), 2);
    EXPECT_EQ(tasks_for(4), 3);
    EXPECT_EQ(tasks_for(100), 3);
  }
  EXPECT_EQ(tasks_for(100), 0);  // pool 1: inline, nothing queued
}

TEST(ThreadPool, BusyTimeAdvancesWithProfilingOff) {
  // Busy time comes from the clock reads around each worker sleep, so it
  // needs no kernel profiling. A worker adds its busy stretch when it next
  // sleeps: repeat bursts of ~1 ms chunks until one lands, under a deadline.
  PoolSize guard(2);
  obs::force_profile_kernels(false);
  obs::Counter& busy_us = obs::counter("pool.worker_busy_us");
  const int64_t before = busy_us.value();
  const auto spin_1ms = [](int64_t, int64_t) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (busy_us.value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    parallel_for(0, 16, 1, spin_1ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(busy_us.value(), before);
}

TEST(ParallelFor, NestedLoopsAreBitIdenticalAcrossThreadCounts) {
  // An outer batch loop of row loops writing disjoint slots — the FFT / bmm
  // nesting shape. Identical bits required at 1/2/8 threads.
  Rng rng(41);
  const Tensor src = Tensor::randn({16 * 64}, rng);
  auto compute = [&] {
    Tensor out({16 * 64});
    const float* in = src.data();
    float* o = out.data();
    parallel_for(0, 16, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) {
        parallel_for(0, 64, 8, [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            const float v = in[b * 64 + i];
            o[b * 64 + i] = v * v + 0.5f * v;
          }
        });
      }
    });
    return out;
  };
  ThreadPool::instance().resize(1);
  const Tensor ref = compute();
  for (const int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    const Tensor got = compute();
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          sizeof(float) * static_cast<std::size_t>(ref.numel())),
              0)
        << "nested loops differ at " << threads << " threads";
  }
  ThreadPool::instance().resize(1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  PoolSize guard(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](int64_t b, int64_t) {
                     if (b == 37) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Determinism: every parallelized kernel must produce bit-identical results
// for SAUFNO_NUM_THREADS in {1, 2, 8}.
// ---------------------------------------------------------------------------

template <typename Fn>
void expect_bitwise_stable(Fn compute) {
  ThreadPool::instance().resize(1);
  const Tensor ref = compute();
  for (const int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    const Tensor got = compute();
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          sizeof(float) * static_cast<std::size_t>(ref.numel())),
              0)
        << "result differs at " << threads << " threads";
  }
  ThreadPool::instance().resize(1);
}

TEST(ParallelFor, ConcurrentNestedCallersComplete) {
  // Four application threads each run an outer loop of nested inner loops
  // at once, so joins wait while other callers' chunks fill the queues. A
  // join that only waits must still make progress (a hang fails through
  // the ctest TIMEOUT), and each caller's slice must match pool 1.
  constexpr int64_t kCallers = 4, kOuter = 24, kInner = 512;
  Rng rng(43);
  const Tensor src = Tensor::randn({kOuter * kInner}, rng);
  expect_bitwise_stable([&] {
    Tensor out({kCallers, kOuter * kInner});
    std::vector<std::thread> callers;
    for (int64_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const float* in = src.data();
        float* o = out.data() + c * kOuter * kInner;
        const float scale = 1.0f + 0.25f * static_cast<float>(c);
        parallel_for(0, kOuter, 1, [&](int64_t b0, int64_t b1) {
          for (int64_t b = b0; b < b1; ++b) {
            parallel_for(0, kInner, 16, [&](int64_t i0, int64_t i1) {
              for (int64_t i = b * kInner + i0; i < b * kInner + i1; ++i) {
                o[i] = scale * in[i] * in[i] - in[i];
              }
            });
          }
        });
      });
    }
    for (auto& t : callers) t.join();
    return out;
  });
}

runtime::InferenceRequest make_request(const Shape& shape) {
  runtime::InferenceRequest req;
  req.input = Tensor::zeros(shape);
  req.result = std::make_shared<runtime::ResultSlot>();
  req.enqueued_at = std::chrono::steady_clock::now();
  return req;
}

TEST(RequestQueue, ShardsByShapeAndDrainsRoundRobin) {
  runtime::RequestQueue q;
  // Interleaved two-shape traffic: the sharded queue must produce full
  // same-shape batches, not the batch-size-1 collapse of a single FIFO.
  const Shape a{3, 10, 10}, b{3, 14, 14};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.push(make_request(a)).ok());
    ASSERT_TRUE(q.push(make_request(b)).ok());
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.shard_count(), 2u);

  auto first = q.pop_batch(4, /*max_wait_us=*/0);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first.front().input.shape(), a);
  auto second = q.pop_batch(4, 0);
  ASSERT_EQ(second.size(), 4u);
  EXPECT_EQ(second.front().input.shape(), b);
  for (auto& r : first) r.result->try_value(Tensor::zeros({1}));
  for (auto& r : second) r.result->try_value(Tensor::zeros({1}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.shard_count(), 0u);
}

TEST(RequestQueue, RoundRobinAlternatesBetweenLiveShards) {
  runtime::RequestQueue q;
  const Shape a{1, 8, 8}, b{1, 12, 12};
  for (int i = 0; i < 8; ++i) q.push(make_request(i % 2 == 0 ? a : b));
  // max_batch 2 forces two drains per shard; shapes must alternate so one
  // hot resolution cannot starve the other.
  std::vector<Shape> order;
  for (int i = 0; i < 8; i += 2) {
    auto batch = q.pop_batch(2, 0);
    ASSERT_EQ(batch.size(), 2u);
    order.push_back(batch.front().input.shape());
    for (auto& r : batch) r.result->try_value(Tensor::zeros({1}));
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_NE(order[0], order[1]);
  EXPECT_NE(order[1], order[2]);
  EXPECT_NE(order[2], order[3]);
}

TEST(RequestQueue, BatchDeadlineAnchorsToEnqueueTime) {
  runtime::RequestQueue q;
  q.push(make_request({3, 10, 10}));
  // The request has already waited longer than max_wait_us by the time the
  // batcher pops, so pop_batch must return it immediately instead of
  // waiting max_wait_us again for stragglers.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = q.pop_batch(8, /*max_wait_us=*/200000);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_LT(waited, 0.150) << "pop_batch re-armed the wait at pop time";
  batch.front().result->try_value(Tensor::zeros({1}));
}

TEST(RequestQueue, TotalCapacityRejectsThenRecovers) {
  runtime::RequestQueue q;
  q.set_capacity(/*total=*/3);
  const Shape a{3, 10, 10};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(make_request(a)).ok());
  auto rejected = q.push(make_request(a));
  EXPECT_EQ(rejected.status, runtime::RequestQueue::PushStatus::kQueueFull);
  EXPECT_EQ(rejected.depth, 3u);
  EXPECT_EQ(q.size(), 3u) << "rejected push leaked into the queue";

  // Draining frees capacity: the same push succeeds afterwards.
  auto batch = q.pop_batch(3, 0);
  ASSERT_EQ(batch.size(), 3u);
  for (auto& r : batch) r.result->try_value(Tensor::zeros({1}));
  EXPECT_TRUE(q.push(make_request(a)).ok());
  q.pop_batch(1, 0).front().result->try_value(Tensor::zeros({1}));
}

TEST(RequestQueue, ReapsExpiredAndCancelledHeadsAtDequeue) {
  runtime::RequestQueue q;
  const Shape a{3, 10, 10};
  auto expired = make_request(a);
  expired.opts.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto expired_slot = expired.result;
  auto cancelled = make_request(a);
  auto token = runtime::CancelToken::make();
  cancelled.opts.cancel = token;
  auto cancelled_slot = cancelled.result;
  auto live = make_request(a);
  auto live_slot = live.result;
  ASSERT_TRUE(q.push(std::move(expired)).ok());
  ASSERT_TRUE(q.push(std::move(cancelled)).ok());
  ASSERT_TRUE(q.push(std::move(live)).ok());
  token.request_cancel();

  auto batch = q.pop_batch(8, 0);
  ASSERT_EQ(batch.size(), 1u) << "dead heads were handed to the batcher";
  EXPECT_THROW(expired_slot->get_future().get(),
               runtime::DeadlineExceededError);
  EXPECT_THROW(cancelled_slot->get_future().get(), runtime::CancelledError);
  EXPECT_EQ(q.expired_count(), 1);
  EXPECT_EQ(q.cancelled_count(), 1);
  batch.front().result->try_value(Tensor::zeros({1}));
  EXPECT_NO_THROW(live_slot->get_future().get());
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, FailPendingResolvesEveryWaiterWithTheGivenError) {
  runtime::RequestQueue q;
  std::vector<std::shared_ptr<runtime::ResultSlot>> slots;
  for (int i = 0; i < 5; ++i) {
    auto req = make_request(i % 2 == 0 ? Shape{3, 10, 10} : Shape{3, 14, 14});
    slots.push_back(req.result);
    ASSERT_TRUE(q.push(std::move(req)).ok());
  }
  const std::size_t failed = q.fail_pending(std::make_exception_ptr(
      runtime::ShutdownError("engine drained: request not served")));
  EXPECT_EQ(failed, 5u);
  EXPECT_EQ(q.size(), 0u);
  for (auto& s : slots) {
    EXPECT_THROW(s->get_future().get(), runtime::ShutdownError);
  }
}

TEST(RequestQueue, FailPendingWhileBatcherWaitsForStragglers) {
  // pop_batch waits for stragglers with the lock released while holding a
  // reference to its shard. fail_pending (drain timeout, watchdog trip) in
  // that window must not free the shard. If it did, the next shard
  // allocated (here: another shape's) could reuse its memory, and the
  // waiting batch would take a request of the wrong shape.
  runtime::RequestQueue q;
  const Shape shape{3, 10, 10}, other{3, 14, 14};
  ASSERT_TRUE(q.push(make_request(shape)).ok());
  std::vector<runtime::InferenceRequest> batch;
  std::thread batcher([&] {
    batch = q.pop_batch(2, /*max_wait_us=*/10'000'000);
  });
  // size() takes the queue lock, so it reads 0 only once the batcher has
  // popped the head and released the lock to wait for a straggler.
  while (q.size() != 0) std::this_thread::yield();
  EXPECT_EQ(q.fail_pending(std::make_exception_ptr(
                runtime::ShutdownError("drain timeout"))),
            0u);
  ASSERT_TRUE(q.push(make_request(other)).ok());
  ASSERT_TRUE(q.push(make_request(shape)).ok());
  batcher.join();
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& req : batch) EXPECT_EQ(req.input.shape(), shape);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.shard_count(), 1u);
  auto rest = q.pop_batch(2, /*max_wait_us=*/0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.front().input.shape(), other);
}

TEST(RuntimeDeterminism, Gemm) {
  Rng rng(11);
  const Tensor a = Tensor::randn({37, 53}, rng);
  const Tensor b = Tensor::randn({53, 41}, rng);
  expect_bitwise_stable([&] { return matmul(a, b); });
}

TEST(RuntimeDeterminism, GemmAccumulate) {
  Rng rng(12);
  const Tensor a = Tensor::randn({19, 31}, rng);
  const Tensor b = Tensor::randn({31, 23}, rng);
  expect_bitwise_stable([&] {
    Tensor c = Tensor::ones({19, 23});
    gemm(a.data(), b.data(), c.data(), 19, 23, 31, /*accumulate=*/true);
    return c;
  });
}

TEST(RuntimeDeterminism, Fft2dBatched) {
  Rng rng(13);
  // 12x12 is not a power of two -> exercises the Bluestein path too.
  const Tensor real = Tensor::randn({6 * 12 * 12}, rng);
  const Tensor imag = Tensor::randn({6 * 12 * 12}, rng);
  expect_bitwise_stable([&] {
    std::vector<cfloat> buf(6 * 12 * 12);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = cfloat(real.at(static_cast<int64_t>(i)),
                      imag.at(static_cast<int64_t>(i)));
    }
    fft_2d(buf.data(), 6, 12, 12, /*inverse=*/false);
    fft_2d(buf.data(), 6, 12, 12, /*inverse=*/true);
    Tensor out({6 * 12 * 12 * 2});
    for (std::size_t i = 0; i < buf.size(); ++i) {
      out.at(static_cast<int64_t>(2 * i)) = buf[i].real();
      out.at(static_cast<int64_t>(2 * i + 1)) = buf[i].imag();
    }
    return out;
  });
}

TEST(RuntimeDeterminism, ElementwiseAndReductions) {
  Rng rng(14);
  const Tensor a = Tensor::randn({50000}, rng);
  const Tensor b = Tensor::randn({50000}, rng);
  expect_bitwise_stable([&] { return add(a, b); });
  expect_bitwise_stable([&] { return gelu(a); });
  expect_bitwise_stable([&] {
    return Tensor({1}, {sum_all(a)});
  });
  expect_bitwise_stable([&] { return softmax_lastdim(a.reshape({100, 500})); });
  expect_bitwise_stable([&] { return sum_dim(a.reshape({100, 500}), 1, false); });
}

TEST(RuntimeDeterminism, Im2colCol2im) {
  Rng rng(15);
  const int64_t c = 5, h = 17, w = 13, kh = 3, kw = 3, stride = 1, pad = 1;
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const Tensor img = Tensor::randn({c, h, w}, rng);
  const Tensor cols_in = Tensor::randn({c * kh * kw, oh * ow}, rng);
  expect_bitwise_stable([&] {
    Tensor cols({c * kh * kw, oh * ow});
    im2col(img.data(), cols.data(), c, h, w, kh, kw, stride, pad);
    return cols;
  });
  expect_bitwise_stable([&] {
    Tensor grad = Tensor::zeros({c, h, w});
    col2im(cols_in.data(), grad.data(), c, h, w, kh, kw, stride, pad);
    return grad;
  });
}

TEST(RuntimeDeterminism, PermuteAndBmm) {
  Rng rng(16);
  const Tensor a = Tensor::randn({7, 9, 11, 5}, rng);
  expect_bitwise_stable([&] { return permute(a, {2, 0, 3, 1}); });
  const Tensor x = Tensor::randn({6, 14, 10}, rng);
  const Tensor y = Tensor::randn({6, 10, 12}, rng);
  expect_bitwise_stable([&] { return bmm(x, y); });
}

TEST(RuntimeDeterminism, SpectralConv2dForward) {
  Rng rng(18);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng);  // Bluestein path too
  const Tensor w = Tensor::randn({3, 4, 6, 3, 2}, rng, 0.f, 0.3f);
  expect_bitwise_stable([&] {
    return ops::spectral_conv2d(Var(x, false), Var(w, false), 3, 3, 4).value();
  });
}

// ---------------------------------------------------------------------------
// Workspace arena: size-bucketed per-thread reuse, counted in obs.
// ---------------------------------------------------------------------------

int64_t arena_hits() { return obs::counter("arena.hits").value(); }
int64_t arena_misses() { return obs::counter("arena.misses").value(); }

TEST(Workspace, ReleasedBlockIsReusedWithinBucket) {
  PoolSize guard(1);  // no worker arenas in play
  void* p = runtime::arena_acquire(1000 * sizeof(float));
  runtime::arena_release(p, 1000 * sizeof(float));
  const int64_t hits = arena_hits(), misses = arena_misses();
  // A smaller request in the same power-of-two bucket reuses the block.
  void* q = runtime::arena_acquire(700 * sizeof(float));
  EXPECT_EQ(q, p);
  EXPECT_EQ(arena_hits(), hits + 1);
  EXPECT_EQ(arena_misses(), misses);
  runtime::arena_release(q, 700 * sizeof(float));
}

TEST(Workspace, ScratchRaiiReturnsToArena) {
  PoolSize guard(1);
  const float* first = nullptr;
  {
    runtime::Scratch<float> a(4096);
    a.zero();
    a.data()[0] = 1.f;
    a.data()[4095] = 2.f;
    EXPECT_EQ(a.size(), 4096u);
    first = a.data();
  }
  const int64_t hits = arena_hits(), misses = arena_misses();
  {
    runtime::Scratch<float> b(4096);
    EXPECT_EQ(b.data(), first);
  }
  EXPECT_EQ(arena_hits(), hits + 1);
  EXPECT_EQ(arena_misses(), misses);
  // Both counters reach the scrape that perfbench and exporters read.
  std::vector<std::string> names;
  for (const auto& m : obs::Registry::instance().snapshot()) {
    names.push_back(m.name);
  }
  for (const char* n : {"arena.hits", "arena.misses"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
  }
}

TEST(Workspace, CrossThreadReleaseIsSafe) {
  // Scratch always releases on its acquiring thread; a raw release on
  // another thread still lands the block in that thread's freelist.
  void* p = runtime::arena_acquire(512 * sizeof(float));
  std::thread t([p] {
    runtime::arena_release(p, 512 * sizeof(float));
    void* q = runtime::arena_acquire(512 * sizeof(float));
    EXPECT_EQ(q, p);
    runtime::arena_release(q, 512 * sizeof(float));
  });
  t.join();
}

TEST(Workspace, SpectralSteadyStateHasNoArenaMisses) {
  PoolSize guard(1);  // single arena: warmup fills every bucket it needs
  Rng rng(19);
  const Tensor x = Tensor::randn({2, 4, 16, 16}, rng);
  const Tensor w = Tensor::randn({4, 4, 8, 4, 2}, rng, 0.f, 0.3f);
  auto forward = [&] {
    return ops::spectral_conv2d(Var(x, false), Var(w, false), 4, 4, 4).value();
  };
  // Warm up: builds FFT plans and fills every bucket the op touches.
  const Tensor ref = forward();
  const int64_t hits = arena_hits(), misses = arena_misses();
  const Tensor again = forward();
  EXPECT_EQ(arena_misses(), misses) << "spectral hot loop allocated after warmup";
  EXPECT_GT(arena_hits(), hits);
  EXPECT_TRUE(again.allclose(ref, 0.f, 0.f)) << "reuse changed results";
}

TEST(ParallelSum, MatchesSequentialForEveryThreadCount) {
  Rng rng(17);
  const Tensor a = Tensor::randn({123457}, rng);
  const float* p = a.data();
  auto chunk = [&](int64_t b, int64_t e) {
    double s = 0.0;
    for (int64_t i = b; i < e; ++i) s += p[i];
    return s;
  };
  ThreadPool::instance().resize(1);
  const double ref = parallel_sum(a.numel(), 4096, chunk);
  for (const int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    EXPECT_EQ(parallel_sum(a.numel(), 4096, chunk), ref);
  }
  ThreadPool::instance().resize(1);
}

}  // namespace
}  // namespace saufno
