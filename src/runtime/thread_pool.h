#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace saufno {
namespace runtime {

/// Process-wide work-stealing thread pool.
///
/// Sized once on first use from the SAUFNO_NUM_THREADS environment variable
/// (default: hardware_concurrency); `resize()` exists so tests and benches
/// can sweep thread counts in-process. A pool of size N runs N-1 dedicated
/// workers — the thread that calls `parallel_for` is the Nth lane and
/// executes chunks alongside the workers, so `SAUFNO_NUM_THREADS=1` means
/// fully inline execution with zero worker threads.
///
/// Scheduling: `submit` pushes onto per-worker deques round-robin; a worker
/// drains its own deque LIFO (cache-warm) and, when empty, steals FIFO from
/// its siblings before sleeping. Only workers run queued tasks: a thread
/// waiting in a `parallel_for` join just waits. The pool never reorders the
/// *results* of the kernels built on top of it: `parallel_for` chunk
/// boundaries depend only on the grain (see parallel_for.h), so every
/// thread count produces bit-identical tensors.
class ThreadPool {
 public:
  /// The singleton; constructed (and its workers started) on first call.
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total lanes (workers + the calling thread). Always >= 1.
  int num_threads() const { return n_threads_; }

  /// Tear down the current workers and restart with `n` total lanes
  /// (clamped to >= 1). Blocks until queued tasks have drained and every
  /// worker has joined. Must not race with submissions from other threads;
  /// it exists for benches/tests that sweep thread counts.
  void resize(int n);

  /// Enqueue a task for asynchronous execution. With no workers (pool size
  /// 1) the task runs inline on the calling thread.
  void submit(std::function<void()> task);

  /// Tasks currently queued (submitted, not yet started). Scrape-side
  /// accessor for the `pool.queue_depth` callback gauge.
  int64_t queued_tasks() const {
    return task_count_.load(std::memory_order_relaxed);
  }

 private:
  explicit ThreadPool(int n);
  void start(int n);
  void stop_and_join();
  void worker_loop(std::size_t id);
  /// Pop own work (LIFO) or steal from a sibling (FIFO); true if a task ran.
  bool run_one(std::size_t id);

  struct Worker {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  int n_threads_ = 1;
  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<std::int64_t> task_count_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
};

}  // namespace runtime
}  // namespace saufno
