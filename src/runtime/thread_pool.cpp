#include "runtime/thread_pool.h"

#include <chrono>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace saufno {
namespace runtime {
namespace {

int default_num_threads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  // Range-validated env override; a pool larger than ~1024 lanes is a typo.
  return env_int_in_range("SAUFNO_NUM_THREADS", hw, 1, 1024);
}

int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

ThreadPool::ThreadPool(int n) {
  resize(n);
  obs::Registry::instance().register_callback(
      "pool.queue_depth",
      [this] { return static_cast<double>(queued_tasks()); });
  obs::Registry::instance().register_callback(
      "pool.lanes", [this] { return static_cast<double>(num_threads()); });
}

ThreadPool::~ThreadPool() {
  obs::Registry::instance().unregister_callback("pool.queue_depth");
  obs::Registry::instance().unregister_callback("pool.lanes");
  stop_and_join();
}

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ThreadPool::resize(int n) {
  if (n < 1) n = 1;
  if (n == n_threads_) return;
  stop_and_join();
  SAUFNO_CHECK(queue_.empty(), "ThreadPool::resize with tasks still queued");
  n_threads_ = n;
  stop_ = false;
  for (int i = 1; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::submit(std::function<void()> task) {
  SAUFNO_CHECK(!threads_.empty(), "ThreadPool::submit on a pool of size 1");
  static obs::Counter& submitted = obs::counter("pool.tasks_submitted");
  submitted.add();
  {
    std::lock_guard<std::mutex> lk(m_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

int64_t ThreadPool::queued_tasks() const {
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<int64_t>(queue_.size());
}

/// Busy and idle time come from the two clock reads around each cv sleep:
/// the stretch from the last wake to the next sleep is busy, the sleep is
/// idle, and the stretch from the last wake to exit is busy too. Always on,
/// at one sharded counter add per sleep; running a task reads no clock.
void ThreadPool::worker_loop() {
  static obs::Counter& idle_us = obs::counter("pool.worker_idle_us");
  static obs::Counter& busy_us = obs::counter("pool.worker_busy_us");
  int64_t last_wake = now_us();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(m_);
      if (queue_.empty() && !stop_) {
        const int64_t sleep_start = now_us();
        busy_us.add(sleep_start - last_wake);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        last_wake = now_us();
        idle_us.add(last_wake - sleep_start);
      }
      // Drain before exiting, so resize never drops a queued task.
      if (queue_.empty()) {
        busy_us.add(now_us() - last_wake);
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace runtime
}  // namespace saufno
