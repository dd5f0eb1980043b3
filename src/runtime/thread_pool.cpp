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

/// Pool telemetry. Counters are process-wide (the pool is a singleton);
/// idle time is measured only around the cv sleep (2 clock reads per
/// sleep/wake cycle — off the task-execution fast path), and per-task busy
/// time only under SAUFNO_PROFILE_KERNELS so a fine-grained parallel_for is
/// never taxed with clock reads by default.
struct PoolMetrics {
  obs::Counter& submitted = obs::counter("pool.tasks_submitted");
  obs::Counter& inline_runs = obs::counter("pool.tasks_inline");
  obs::Counter& steals = obs::counter("pool.tasks_stolen");
  obs::Counter& idle_us = obs::counter("pool.worker_idle_us");
  obs::Counter& busy_us = obs::counter("pool.worker_busy_us");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

ThreadPool::ThreadPool(int n) {
  start(n);
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

void ThreadPool::start(int n) {
  if (n < 1) n = 1;
  n_threads_ = n;
  stop_.store(false, std::memory_order_relaxed);
  const int n_workers = n - 1;
  workers_.reserve(static_cast<std::size_t>(n_workers));
  threads_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < n_workers; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  workers_.clear();
}

void ThreadPool::resize(int n) {
  if (n < 1) n = 1;
  if (n == n_threads_) return;
  stop_and_join();
  SAUFNO_CHECK(task_count_.load() == 0,
               "ThreadPool::resize with tasks still queued");
  start(n);
}

void ThreadPool::submit(std::function<void()> task) {
  PoolMetrics& pm = pool_metrics();
  if (workers_.empty()) {
    pm.inline_runs.add();
    task();
    return;
  }
  pm.submitted.add();
  const std::size_t idx =
      static_cast<std::size_t>(next_queue_.fetch_add(1, std::memory_order_relaxed)) %
      workers_.size();
  {
    std::lock_guard<std::mutex> lk(workers_[idx]->m);
    workers_[idx]->q.push_back(std::move(task));
  }
  {
    // Bump the count under the wake mutex: a worker that just evaluated the
    // wait predicate cannot block before seeing this increment, so the
    // notification is never lost.
    std::lock_guard<std::mutex> lk(wake_m_);
    task_count_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::run_one(std::size_t id) {
  std::function<void()> task;
  // Own deque first, newest task (LIFO keeps the working set warm)...
  {
    Worker& w = *workers_[id];
    std::lock_guard<std::mutex> lk(w.m);
    if (!w.q.empty()) {
      task = std::move(w.q.back());
      w.q.pop_back();
    }
  }
  // ...then steal the oldest task from a sibling (FIFO spreads big batches).
  if (!task) {
    const std::size_t n = workers_.size();
    for (std::size_t k = 1; k < n && !task; ++k) {
      Worker& v = *workers_[(id + k) % n];
      std::lock_guard<std::mutex> lk(v.m);
      if (!v.q.empty()) {
        task = std::move(v.q.front());
        v.q.pop_front();
        pool_metrics().steals.add();
      }
    }
  }
  if (!task) return false;
  task_count_.fetch_sub(1, std::memory_order_acq_rel);
  if (obs::profile_kernels()) {
    const int64_t t0 = now_us();
    task();
    pool_metrics().busy_us.add(now_us() - t0);
  } else {
    task();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t id) {
  for (;;) {
    if (run_one(id)) continue;
    std::unique_lock<std::mutex> lk(wake_m_);
    const int64_t t0 = now_us();
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             task_count_.load(std::memory_order_acquire) > 0;
    });
    pool_metrics().idle_us.add(now_us() - t0);
    if (stop_.load(std::memory_order_relaxed) &&
        task_count_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace runtime
}  // namespace saufno
