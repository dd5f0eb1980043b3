#include "runtime/inference_engine.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/fault.h"
#include "data/normalizer.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace saufno {
namespace {

using runtime::InferenceEngine;
using runtime::ThreadPool;

std::shared_ptr<nn::Module> smoke_model() {
  return train::make_model("SAU-FNO", /*in_channels=*/3, /*out_channels=*/1,
                           /*seed=*/42, /*size_hint=*/0);
}

std::vector<Tensor> random_maps(int n, int64_t res, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> maps;
  for (int i = 0; i < n; ++i) {
    maps.push_back(Tensor::randn({3, res, res}, rng));
  }
  return maps;
}

TEST(InferenceEngine, BatchedResultsMatchSequentialForward) {
  auto model = smoke_model();
  const auto maps = random_maps(6, 12, 7);

  // Reference: one-at-a-time forwards, no engine involved.
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50000;  // generous: all submits must coalesce
  InferenceEngine engine(model, cfg);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    ASSERT_EQ(got.shape(), expected[i].shape());
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "request " << i << " differs from the sequential forward";
  }
}

TEST(InferenceEngine, ConcurrentSubmittersGetSequentialResults) {
  auto model = smoke_model();
  const auto maps = random_maps(8, 10, 8);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 10, 10}).clone()));
    expected.push_back(out.value().reshape({1, 10, 10}).clone());
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 20000;
  InferenceEngine engine(model, cfg);
  std::vector<Tensor> got(maps.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    clients.emplace_back([&, i] { got[i] = engine.submit(maps[i].clone()).get(); });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < maps.size(); ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(expected[i].numel())),
              0)
        << "client " << i;
  }
}

TEST(InferenceEngine, PaddedBatchesDoNotChangeRealRows) {
  auto model = smoke_model();
  const auto maps = random_maps(3, 12, 9);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 8;  // > number of requests: every batch gets zero-padded
  cfg.max_wait_us = 20000;
  cfg.pad_to_full_batch = true;
  InferenceEngine engine(model, cfg);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0);
  }
}

TEST(InferenceEngine, SubmitValidatesExactChannelCount) {
  // A wider-than-expected input used to pass the normalizer's `>=` lower
  // bound and then die inside model_->forward with an opaque shape error;
  // the exact check must reject it at submit() with both counts named.
  InferenceEngine::Config cfg;
  cfg.expected_in_channels = 3;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(41);
  try {
    engine.submit(Tensor::randn({5, 10, 10}, rng));
    FAIL() << "5-channel submit on a 3-channel model did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5 channels"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expects exactly 3"), std::string::npos) << msg;
  }
  EXPECT_THROW(engine.submit(Tensor::randn({2, 10, 10}, rng)),
               std::runtime_error);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
}

TEST(InferenceEngine, FromZooFillsExpectedChannels) {
  auto engine = InferenceEngine::from_zoo("SAU-FNO", 3, 1, /*seed=*/42,
                                          /*checkpoint=*/"",
                                          InferenceEngine::Config{});
  EXPECT_EQ(engine->config().expected_in_channels, 3);
  Rng rng(43);
  EXPECT_THROW(engine->submit(Tensor::randn({4, 10, 10}, rng)),
               std::runtime_error);
}

TEST(InferenceEngine, PaddedBatchBitIdenticalToUnpaddedWithNormalizer) {
  // Padding rows are zeros at submit time but encode_inputs maps them to
  // whatever the encoder sends 0 to — they do NOT stay zero in general.
  // Real rows must still be bit-identical to an unpadded engine because
  // every kernel is per-sample independent; this pins that invariant down
  // through the full encode -> forward -> decode path.
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const auto maps = random_maps(3, 12, 77);

  auto serve = [&](bool pad) {
    InferenceEngine::Config cfg;
    cfg.max_batch = 8;  // > request count: the padded engine always pads
    cfg.max_wait_us = 50000;
    cfg.pad_to_full_batch = pad;
    InferenceEngine engine(model, norm, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    std::vector<Tensor> out;
    for (auto& f : futs) out.push_back(f.get());
    return out;
  };
  const auto unpadded = serve(false);
  const auto padded = serve(true);
  for (std::size_t i = 0; i < maps.size(); ++i) {
    ASSERT_EQ(padded[i].shape(), unpadded[i].shape());
    EXPECT_EQ(std::memcmp(padded[i].data(), unpadded[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(padded[i].numel())),
              0)
        << "request " << i << ": padding perturbed a real row";
  }
}

TEST(InferenceEngine, PartitionedBatchBitIdenticalToWholeBatchForward) {
  // The engine splits a padded batch of 8 into one row partition per pool
  // lane with >= 2 rows each: pools of 1, 3 and 8 lanes give 1, 2 and 4
  // partitions, the chunks of one parallel_for. Per-sample
  // independence (pinned above) makes every split bit-identical to the
  // whole-batch forward at pool 1.
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const auto maps = random_maps(8, 12, 99);
  const int ambient = ThreadPool::instance().num_threads();

  auto serve = [&](int threads, int64_t parts) {
    ThreadPool::instance().resize(threads);
    InferenceEngine::Config cfg;
    cfg.max_batch = 8;
    cfg.max_wait_us = 50000;
    cfg.pad_to_full_batch = true;  // stable batch of 8 -> stable partitions
    InferenceEngine engine(model, norm, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    std::vector<Tensor> out;
    for (auto& f : futs) out.push_back(f.get());
    if (engine.plan_runner().mode() == plan::Mode::kOn) {
      // The one plan compiled is for the partition shape.
      EXPECT_EQ(engine.plan_runner().cache_size(), 1u);
      EXPECT_NE(engine.plan_runner().executor_for({8 / parts, 3, 12, 12}),
                nullptr)
          << threads << " lanes should give " << parts << " partitions";
    }
    ThreadPool::instance().resize(ambient);
    return out;
  };
  const auto whole = serve(1, 1);
  for (const auto& [threads, parts] : {std::pair{3, 2}, std::pair{8, 4}}) {
    const auto split = serve(threads, parts);
    for (std::size_t i = 0; i < maps.size(); ++i) {
      ASSERT_EQ(split[i].shape(), whole[i].shape());
      EXPECT_EQ(std::memcmp(split[i].data(), whole[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(split[i].numel())),
                0)
          << "request " << i << " at " << threads
          << " threads: partitioning changed a row";
    }
  }
}

TEST(InferenceEngine, ShortLivedClientThreadsCanDropResults) {
  // Regression for the cross-thread arena hazard: results used to be
  // arena-backed, so a client thread dropping its tensor at thread exit
  // released the block into a dying thread's freelist (and a release after
  // that thread's arena teardown is use-after-destruction — caught by the
  // ASan lane, which runs this test). Results are now plain heap tensors;
  // hammer the pattern with many short-lived client threads to keep it so.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 2000;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(4, 10, 55);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back([&, i] {
        // get() the result, touch it, and let the thread exit immediately
        // while still owning the tensor — the destructor runs during
        // thread teardown.
        Tensor result = engine.submit(maps[static_cast<std::size_t>(i)].clone()).get();
        ASSERT_GT(result.numel(), 0);
      });
    }
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(engine.stats().requests, 8 * 4);
}

TEST(InferenceEngine, CoalescesAndReportsStats) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(8, 10, 10);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (auto& f : futs) f.get();

  const auto s = engine.stats();
  EXPECT_EQ(s.requests, 8);
  EXPECT_GE(s.batches, 2);        // 8 requests cannot fit one batch of 4
  EXPECT_LE(s.avg_batch_size, 4.0);
  EXPECT_GT(s.avg_batch_size, 0.0);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_GE(s.latency_max_ms, s.latency_p99_ms);
  EXPECT_GT(s.throughput_rps, 0.0);
}

TEST(InferenceEngine, MixedResolutionsServeInSeparateBatches) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 20000;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(11);
  auto small = engine.submit(Tensor::randn({3, 10, 10}, rng));
  auto large = engine.submit(Tensor::randn({3, 14, 14}, rng));
  const Tensor ts = small.get();
  const Tensor tl = large.get();
  EXPECT_EQ(ts.shape(), (Shape{1, 10, 10}));
  EXPECT_EQ(tl.shape(), (Shape{1, 14, 14}));
  EXPECT_EQ(engine.stats().batches, 2);
}

TEST(InferenceEngine, StopDrainsPendingRequests) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 1000;
  auto engine = std::make_unique<InferenceEngine>(smoke_model(), cfg);
  const auto maps = random_maps(5, 10, 12);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine->submit(m.clone()));
  engine->stop();  // must not abandon the 5 in-flight promises
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(engine->submit(maps[0].clone()), std::runtime_error);
}

TEST(InferenceEngine, V2CheckpointServesKelvinIdenticalToTrainerPredict) {
  // Fit a real normalizer on a synthetic dataset, deploy the model as a
  // self-describing v2 checkpoint, and check that the engine's raw-in/
  // kelvin-out path is BIT-identical to Trainer::predict on the same file.
  const int64_t res = 12;
  Rng rng(21);
  data::Dataset train_set;
  train_set.chip_name = "synthetic";
  train_set.resolution = static_cast<int>(res);
  train_set.ambient = 298.15;
  train_set.inputs = Tensor::rand_uniform({6, 3, res, res}, rng, 0.f, 5.f);
  train_set.targets = Tensor::rand_uniform({6, 1, res, res}, rng, 300.f, 340.f);
  const auto norm = data::Normalizer::fit(train_set, /*n_power_channels=*/1);

  auto model = smoke_model();
  const std::string path = ::testing::TempDir() + "/saufno_serve_v2.ckpt";
  train::save_deployable(*model, "SAU-FNO", 3, 1, norm, path);

  // Reference: the training-side prediction path on the raw inputs.
  train::Trainer trainer(*model, norm);
  const auto maps = random_maps(5, res, 22);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    expected.push_back(
        trainer.predict(m.reshape({1, 3, res, res}).clone()));
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50000;  // mixed batch compositions vs the reference
  auto engine = InferenceEngine::from_checkpoint(path, cfg);
  ASSERT_TRUE(engine->has_normalizer());
  EXPECT_DOUBLE_EQ(engine->normalizer().temp_scale(), norm.temp_scale());
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine->submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    ASSERT_EQ(got.shape(), (Shape{1, res, res}));
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "request " << i << " is not bit-identical to Trainer::predict";
  }
  std::remove(path.c_str());
}

TEST(InferenceEngine, FromZooPicksUpV2Normalizer) {
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const std::string path = ::testing::TempDir() + "/saufno_zoo_v2.ckpt";
  train::save_deployable(*model, "SAU-FNO", 3, 1, norm, path);
  auto engine = InferenceEngine::from_zoo("SAU-FNO", 3, 1, /*seed=*/42, path,
                                          InferenceEngine::Config{});
  EXPECT_TRUE(engine->has_normalizer());
  EXPECT_DOUBLE_EQ(engine->normalizer().power_scale(), 2.0);
  std::remove(path.c_str());
}

TEST(InferenceEngine, InterleavedResolutionsStillCoalesce) {
  // An A,B,A,B,... stream through the old single-FIFO queue degraded to
  // batch-size-1 (every pop stopped at the first foreign shape). The
  // sharded queue must keep avg batch size > 1 under the same traffic.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;  // generous so stragglers coalesce deterministically
  InferenceEngine engine(smoke_model(), cfg);
  const auto small = random_maps(8, 10, 30);
  const auto large = random_maps(8, 14, 31);
  std::vector<std::future<Tensor>> futs;
  for (std::size_t i = 0; i < small.size(); ++i) {
    futs.push_back(engine.submit(small[i].clone()));
    futs.push_back(engine.submit(large[i].clone()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    const int64_t r = (i % 2 == 0) ? 10 : 14;
    EXPECT_EQ(got.shape(), (Shape{1, r, r}));
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.requests, 16);
  EXPECT_GT(s.avg_batch_size, 1.0)
      << "head-of-line blocking collapsed mixed-shape batching";
  // 16 requests at max_batch 4 need >= 4 batches; well-coalesced traffic
  // should stay close to that rather than near 16.
  EXPECT_LE(s.batches, 12);
}

TEST(InferenceEngine, ThroughputMeasuredOverBusyWindowNotLifetime) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1000;
  const auto t0 = std::chrono::steady_clock::now();
  InferenceEngine engine(smoke_model(), cfg);
  // Idle before the first request must not dilute throughput.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto maps = random_maps(4, 10, 32);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (auto& f : futs) f.get();
  const auto s = engine.stats();
  const double lifetime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_GT(s.wall_seconds, 0.0);
  // The busy window starts at the first enqueue, so the 300 ms idle prefix
  // is excluded from it but included in the lifetime. Comparing against the
  // measured lifetime (rather than an absolute bound) keeps this robust on
  // loaded CI runners: preemption stretches both clocks equally, while the
  // sleep only ever widens the gap.
  EXPECT_LT(s.wall_seconds, lifetime - 0.200);
  EXPECT_GT(s.throughput_rps, 0.0);
}

// ---------------------------------------------------------------------------
// Overload safety: admission control, deadlines, cancellation, fault
// isolation, drain, watchdog. Fault injection (common/fault.h) is process-
// global, so every test that arms it uses the RAII guard below.
// ---------------------------------------------------------------------------

struct FaultGuard {
  FaultGuard(const char* spec, std::uint64_t seed) {
    EXPECT_TRUE(fault::configure(spec, seed));
  }
  ~FaultGuard() { fault::clear(); }
};

TEST(InferenceEngine, SubmitAfterStopThrowsTypedShutdownError) {
  InferenceEngine engine(smoke_model(), InferenceEngine::Config{});
  engine.stop();
  Rng rng(61);
  EXPECT_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)),
               runtime::ShutdownError);
}

TEST(InferenceEngine, AdmissionControlShedsWithRetryAfterHint) {
  // Slow every forward down so the bounded queue actually backs up; with
  // capacity 4 and max_batch 1, at most ~6 of 16 rapid submits can be
  // admitted (1 in flight + 4 queued + 1 popped) and the rest must shed
  // fast with OverloadedError instead of growing the backlog.
  FaultGuard fg("forward:delay:ms=30:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 4;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(16, 10, 62);
  std::vector<std::future<Tensor>> accepted;
  int shed = 0;
  double last_retry_ms = 0.0;
  for (const auto& m : maps) {
    try {
      accepted.push_back(engine.submit(m.clone()));
    } catch (const runtime::OverloadedError& e) {
      ++shed;
      last_retry_ms = e.retry_after_ms();
      EXPECT_NE(std::string(e.what()).find("retry after"), std::string::npos);
    }
  }
  ASSERT_GT(shed, 0) << "16 rapid submits against capacity 4 never shed";
  EXPECT_GT(last_retry_ms, 0.0);
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected, shed);
  EXPECT_EQ(s.requests, static_cast<int64_t>(accepted.size()));
}

TEST(InferenceEngine, ExpiredDeadlineFailsTypedAndNeverDeliversLate) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1000;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(63);
  // Already expired at submit: must resolve with DeadlineExceededError (at
  // dequeue), never with a value.
  runtime::SubmitOptions past;
  past.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  auto doomed = engine.submit(Tensor::randn({3, 10, 10}, rng), past);
  EXPECT_THROW(doomed.get(), runtime::DeadlineExceededError);
  // A generous deadline serves normally, and the engine is unharmed.
  runtime::SubmitOptions future_ok;
  future_ok.deadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng), future_ok)
                      .get());
  const auto s = engine.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.requests, 1);
}

TEST(InferenceEngine, TightDeadlineBehindSlowBatchNeverResolvesWithValue) {
  // The forward takes ~60 ms; the second request's 5 ms deadline passes
  // while it waits behind the first. Wherever the expiry is detected
  // (dequeue, pre-forward, delivery), the future must resolve with
  // DeadlineExceededError — a value after the deadline is a contract bug.
  FaultGuard fg("forward:delay:ms=60:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(64);
  auto first = engine.submit(Tensor::randn({3, 10, 10}, rng));
  runtime::SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(5);
  auto tight = engine.submit(Tensor::randn({3, 10, 10}, rng), opts);
  EXPECT_NO_THROW(first.get());
  EXPECT_THROW(tight.get(), runtime::DeadlineExceededError);
}

TEST(InferenceEngine, CancelTokenResolvesQueuedRequestWithCancelledError) {
  FaultGuard fg("forward:delay:ms=60:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(65);
  auto busy = engine.submit(Tensor::randn({3, 10, 10}, rng));
  runtime::SubmitOptions opts;
  opts.cancel = runtime::CancelToken::make();
  auto queued = engine.submit(Tensor::randn({3, 10, 10}, rng), opts);
  opts.cancel.request_cancel();  // fires while the request is still queued
  EXPECT_THROW(queued.get(), runtime::CancelledError);
  EXPECT_NO_THROW(busy.get());
  EXPECT_EQ(engine.stats().cancelled, 1);
}

TEST(InferenceEngine, NonFiniteInputRejectedAtSubmitNamingTheRequest) {
  InferenceEngine engine(smoke_model(), InferenceEngine::Config{});
  Tensor poisoned = Tensor::zeros({3, 10, 10});
  poisoned.data()[17] = std::numeric_limits<float>::quiet_NaN();
  try {
    engine.submit(std::move(poisoned));
    FAIL() << "NaN input passed validate_finite";
  } catch (const runtime::RequestError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seq="), std::string::npos) << msg;
  }
  // The engine is untouched: a clean request still serves.
  Rng rng(66);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
}

TEST(InferenceEngine, PoisonedBatchFailsOnlyTheCulpableRequest) {
  // validate_finite off lets a NaN input reach the batch; every kernel is
  // per-sample independent, so only the poisoned row's output is non-finite.
  // The output guard must fail exactly that request and deliver batch-mates
  // bit-identical to a clean engine's results.
  auto model = smoke_model();
  const auto maps = random_maps(3, 12, 67);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;  // the four submits must coalesce into one batch
  cfg.validate_finite = false;
  InferenceEngine engine(model, cfg);
  Tensor poisoned = Tensor::zeros({3, 12, 12});
  poisoned.data()[5] = std::numeric_limits<float>::infinity();
  std::vector<std::future<Tensor>> futs;
  futs.push_back(engine.submit(std::move(poisoned)));
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  try {
    futs[0].get();
    FAIL() << "poisoned request resolved with a value";
  } catch (const runtime::RequestError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const Tensor got = futs[i + 1].get();
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "batch-mate " << i << " was perturbed by the poisoned row";
  }
  EXPECT_EQ(engine.stats().failed, 1);
}

TEST(InferenceEngine, TransientBatchFaultIsolatedByBisectionAllSucceed) {
  // The fault fires on the FIRST forward attempt only (n=1): the batch-wide
  // attempt throws, the bisected halves run clean, so every request must
  // still succeed — bit-identical to the sequential reference.
  auto model = smoke_model();
  const auto maps = random_maps(4, 12, 68);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(model, cfg);
  FaultGuard fg("forward:throw:n=1", 1);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    Tensor got;
    ASSERT_NO_THROW(got = futs[i].get()) << "request " << i;
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "bisection retry changed request " << i << "'s result";
  }
  EXPECT_EQ(engine.stats().requests, 4);
  EXPECT_EQ(engine.stats().failed, 0);
}

TEST(InferenceEngine, PersistentBatchFaultFailsEveryRequestByName) {
  // n=7 throws on the whole batch (1 eval), both halves (2), and all four
  // singles (4): 7 attempts, all failing. Every request must get a typed
  // RequestError that NAMES it — the old behavior fanned out one anonymous
  // batch-wide exception.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(smoke_model(), cfg);
  FaultGuard fg("forward:throw:n=7", 1);
  const auto maps = random_maps(4, 12, 69);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      futs[i].get();
      FAIL() << "request " << i << " resolved despite a persistent fault";
    } catch (const runtime::RequestError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("seq="), std::string::npos) << msg;
      EXPECT_NE(msg.find("shape=[3, 12, 12]"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(engine.stats().failed, 4);
  EXPECT_EQ(engine.stats().requests, 0);
}

// A padded batch of 8 in plan mode: at pool 3 the engine runs it as two
// 4-row partitions, the two chunks of one parallel_for, so a "plan" fault
// fires inside one partition.
std::vector<std::future<Tensor>> submit_partitioned(
    std::unique_ptr<InferenceEngine>& engine, std::shared_ptr<nn::Module> model,
    const std::vector<Tensor>& maps) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100000;
  cfg.pad_to_full_batch = true;
  cfg.plan_mode = 1;  // the "plan" fault site is in the plan executor
  engine = std::make_unique<InferenceEngine>(std::move(model), cfg);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine->submit(m.clone()));
  return futs;
}

TEST(InferenceEngine, FaultInsidePartitionIsRetriedBitIdentical) {
  auto model = smoke_model();
  const auto maps = random_maps(8, 12, 70);
  const int ambient = ThreadPool::instance().num_threads();
  std::unique_ptr<InferenceEngine> engine;

  ThreadPool::instance().resize(1);
  std::vector<Tensor> whole;
  for (auto& f : submit_partitioned(engine, model, maps)) {
    whole.push_back(f.get());
  }
  engine.reset();

  ThreadPool::instance().resize(3);
  {
    FaultGuard fg("plan:throw:n=1", 1);
    auto futs = submit_partitioned(engine, model, maps);
    for (std::size_t i = 0; i < futs.size(); ++i) {
      Tensor got;
      ASSERT_NO_THROW(got = futs[i].get()) << "request " << i;
      EXPECT_EQ(std::memcmp(got.data(), whole[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(got.numel())),
                0)
          << "retry after a partition fault changed request " << i;
    }
    EXPECT_EQ(fault::injected_count("plan"), 1);
    EXPECT_NE(engine->plan_runner().executor_for({4, 3, 12, 12}), nullptr)
        << "pool 3 should split the batch of 8 into two partitions";
    EXPECT_EQ(engine->stats().requests, 8);
    EXPECT_EQ(engine->stats().failed, 0);
  }
  engine.reset();
  ThreadPool::instance().resize(ambient);
}

TEST(InferenceEngine, PersistentPartitionFaultFailsEveryRequestByName) {
  const int ambient = ThreadPool::instance().num_threads();
  ThreadPool::instance().resize(3);
  {
    std::unique_ptr<InferenceEngine> engine;
    FaultGuard fg("plan:throw", 1);
    auto futs =
        submit_partitioned(engine, smoke_model(), random_maps(8, 12, 71));
    for (std::size_t i = 0; i < futs.size(); ++i) {
      try {
        futs[i].get();
        FAIL() << "request " << i << " resolved despite a persistent fault";
      } catch (const runtime::RequestError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("seq="), std::string::npos) << msg;
        EXPECT_NE(msg.find("shape=[3, 12, 12]"), std::string::npos) << msg;
      }
    }
    EXPECT_EQ(engine->stats().failed, 8);
    EXPECT_EQ(engine->stats().requests, 0);
  }
  ThreadPool::instance().resize(ambient);
}

TEST(InferenceEngine, UntraceableModelFailsTypedInPlanModeServesInterpreted) {
  // ops::sum_all has no plan opcode, so every compile of this model throws:
  // in plan mode each request resolves with a RequestError that names it,
  // and the batch of 8 fails on its one compile instead of bisecting into
  // 15; the interpreter serves the same model. sum / sum is exactly 1, so a
  // served value is the submitted map.
  auto model = std::make_shared<nn::Lambda>([](const Var& x) {
    return ops::mul(x, ops::div(ops::sum_all(x), ops::sum_all(x)));
  });
  const auto maps = random_maps(8, 8, 72);
  obs::Counter& misses = obs::counter("plan.cache.misses");
  for (const int plan_mode : {1, 0}) {
    SCOPED_TRACE("plan_mode " + std::to_string(plan_mode));
    InferenceEngine::Config cfg;
    cfg.max_batch = 8;
    cfg.max_wait_us = 100000;
    cfg.plan_mode = plan_mode;
    const int64_t misses_before = misses.value();
    InferenceEngine engine(model, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    for (std::size_t i = 0; i < futs.size(); ++i) {
      if (plan_mode == 1) {
        try {
          futs[i].get();
          ADD_FAILURE() << "request " << i << " was served";
        } catch (const runtime::RequestError& e) {
          const std::string msg = e.what();
          EXPECT_NE(msg.find("plan compile"), std::string::npos) << msg;
          EXPECT_NE(msg.find("request seq="), std::string::npos) << msg;
        }
        continue;
      }
      const Tensor got = futs[i].get();
      ASSERT_EQ(got.shape(), maps[i].shape());
      EXPECT_EQ(std::memcmp(got.data(), maps[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(got.numel())),
                0)
          << "request " << i;
    }
    EXPECT_EQ(engine.stats().failed, plan_mode == 1 ? 8 : 0);
    EXPECT_EQ(engine.stats().requests, plan_mode == 1 ? 0 : 8);
    EXPECT_EQ(engine.plan_runner().cache_size(), 0u);
    EXPECT_EQ(misses.value() - misses_before, plan_mode == 1 ? 1 : 0);
  }
}

TEST(InferenceEngine, DrainServesBacklogAndFailsStragglersTyped) {
  {
    // Generous timeout: everything already queued must be SERVED.
    InferenceEngine::Config cfg;
    cfg.max_batch = 2;
    cfg.max_wait_us = 1000;
    InferenceEngine engine(smoke_model(), cfg);
    const auto maps = random_maps(5, 10, 70);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    const std::size_t failed = engine.drain(std::chrono::seconds(30));
    EXPECT_EQ(failed, 0u);
    for (auto& f : futs) EXPECT_NO_THROW(f.get());
    EXPECT_THROW(engine.submit(maps[0].clone()), runtime::ShutdownError);
  }
  {
    // Zero timeout with the batcher wedged on a slow forward: the queued
    // straggler must resolve with ShutdownError instead of hanging.
    FaultGuard fg("forward:delay:ms=80:p=1", 1);
    InferenceEngine::Config cfg;
    cfg.max_batch = 1;
    cfg.max_wait_us = 0;
    InferenceEngine engine(smoke_model(), cfg);
    Rng rng(71);
    auto busy = engine.submit(Tensor::randn({3, 10, 10}, rng));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto straggler = engine.submit(Tensor::randn({3, 10, 10}, rng));
    const std::size_t failed = engine.drain(std::chrono::milliseconds(0));
    EXPECT_EQ(failed, 1u);
    EXPECT_NO_THROW(busy.get());  // in-flight work still completes
    EXPECT_THROW(straggler.get(), runtime::ShutdownError);
  }
}

TEST(InferenceEngine, WatchdogFailsFuturesWhenBatcherStopsProgressing) {
  // The injected forward takes 900 ms but the watchdog allows 100 ms: the
  // client's future must fail long before the forward finishes, and the
  // engine must refuse new work afterwards instead of queueing into a
  // wedged batcher.
  FaultGuard fg("forward:delay:ms=900:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.watchdog_timeout_ms = 100;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(72);
  auto fut = engine.submit(Tensor::randn({3, 10, 10}, rng));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fut.get(), runtime::EngineError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 0.7) << "future waited for the wedged forward";
  EXPECT_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)),
               runtime::ShutdownError);
  EXPECT_GE(engine.stats().failed, 1);
}

/// Sleeps `ms` in every forward before running `inner`. A plan compile (one
/// traced forward) therefore takes at least `ms`; the compiled plan replays
/// only the recorded kernels and never sleeps.
class SlowTraceModel : public nn::Module {
 public:
  SlowTraceModel(std::shared_ptr<nn::Module> inner, int ms) : ms_(ms) {
    inner_ = register_module("inner", std::move(inner));
  }
  Var forward(const Var& x) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return inner_->forward(x);
  }

 private:
  nn::Module* inner_;
  int ms_;
};

TEST(InferenceEngine, ColdPlanCompileCountsAsWatchdogProgress) {
  // The first batch compiles its plan (600 ms) and then runs it (600 ms
  // injected). Each step is under the 800 ms watchdog, but together they
  // exceed it by more than one 200 ms watchdog poll: the finished compile
  // must count as progress, or the engine fails the batch and closes.
  FaultGuard fg("plan:delay:ms=600:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.plan_mode = 1;
  cfg.watchdog_timeout_ms = 800;
  InferenceEngine engine(
      std::make_shared<SlowTraceModel>(
          train::make_model("SAU-FNO-micro", 3, 1, /*seed=*/42), 600),
      cfg);
  Rng rng(74);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
  EXPECT_EQ(engine.stats().failed, 0);
  EXPECT_EQ(engine.plan_runner().cache_size(), 1u);
}

TEST(InferenceEngine, WatchdogTripsOnHungPlanCompile) {
  // A compile that never finishes is no progress: the watchdog fails the
  // request long before the 900 ms traced forward returns.
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.plan_mode = 1;
  cfg.watchdog_timeout_ms = 100;
  InferenceEngine engine(
      std::make_shared<SlowTraceModel>(
          train::make_model("SAU-FNO-micro", 3, 1, /*seed=*/42), 900),
      cfg);
  Rng rng(75);
  auto fut = engine.submit(Tensor::randn({3, 10, 10}, rng));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fut.get(), runtime::EngineError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 0.7) << "future waited for the hung compile";
}

TEST(InferenceEngine, DestructionWithInFlightFuturesAndOutlivingClients) {
  // Clients hold futures in their own threads and outlive the engine: the
  // destructor must serve (or typed-fail) every promise, and the result
  // tensors must stay valid after the engine is gone. The ASan lane runs
  // this against the cross-thread arena hazard from PR 5.
  const auto maps = random_maps(6, 10, 73);
  std::vector<std::thread> clients;
  {
    InferenceEngine::Config cfg;
    cfg.max_batch = 2;
    cfg.max_wait_us = 2000;
    auto engine = std::make_unique<InferenceEngine>(smoke_model(), cfg);
    for (const auto& m : maps) {
      auto fut = engine->submit(m.clone());
      clients.emplace_back(
          [f = std::move(fut)]() mutable {
            Tensor result;
            EXPECT_NO_THROW(result = f.get());
            // Keep the tensor alive past the engine's destruction window.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            EXPECT_GT(result.numel(), 0);
          });
    }
    engine.reset();  // destructor runs with all six futures in flight
  }
  for (auto& t : clients) t.join();
}

TEST(InferenceEngine, DeterministicAcrossThreadCounts) {
  auto model = smoke_model();
  const auto maps = random_maps(4, 12, 13);
  auto run = [&](int threads) {
    ThreadPool::instance().resize(threads);
    InferenceEngine::Config cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 20000;
    InferenceEngine engine(model, cfg);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    std::vector<Tensor> out;
    for (auto& f : futs) out.push_back(f.get());
    return out;
  };
  const auto ref = run(1);
  for (const int threads : {2, 8}) {
    const auto got = run(threads);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(std::memcmp(got[i].data(), ref[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(ref[i].numel())),
                0)
          << "threads=" << threads << " request=" << i;
    }
  }
  ThreadPool::instance().resize(1);
}

}  // namespace
}  // namespace saufno
