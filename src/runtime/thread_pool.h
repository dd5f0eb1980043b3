#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace saufno {
namespace runtime {

/// Process-wide thread pool: N-1 workers sharing one FIFO task queue.
///
/// Sized once on first use from the SAUFNO_NUM_THREADS environment variable
/// (default: hardware_concurrency); `resize()` exists so tests and benches
/// can sweep thread counts in-process. A pool of size N runs N-1 dedicated
/// workers — the thread that calls `parallel_for` is the Nth lane and
/// executes chunks alongside the workers, so `SAUFNO_NUM_THREADS=1` means
/// fully inline execution with zero worker threads.
///
/// Only workers run queued tasks: a thread waiting in a `parallel_for` join
/// just waits. Every task `parallel_for` queues claims chunks from its loop's
/// shared counter, so which worker takes which task changes nothing, and
/// chunk boundaries depend only on the grain (see parallel_for.h): every
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

  /// Enqueue a task for a worker. The pool must have workers (size >= 2).
  void submit(std::function<void()> task);

  /// Tasks currently queued (submitted, not yet started). Scrape-side
  /// accessor for the `pool.queue_depth` callback gauge.
  int64_t queued_tasks() const;

 private:
  explicit ThreadPool(int n);
  void stop_and_join();
  void worker_loop();

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
  int n_threads_ = 1;
};

}  // namespace runtime
}  // namespace saufno
