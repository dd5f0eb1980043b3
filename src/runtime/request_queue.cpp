#include "runtime/request_queue.h"

#include <string>

#include "obs/metrics.h"

namespace saufno {
namespace runtime {
namespace {

/// Queue telemetry, aggregated across every RequestQueue in the process
/// (instances are per-engine; depth uses gauge add/sub so concurrent
/// queues sum correctly). Recorded under the queue mutex — all plain
/// relaxed RMWs, noise next to the lock itself.
struct QueueMetrics {
  obs::Counter& pushed = obs::counter("queue.requests_pushed");
  obs::Counter& batches = obs::counter("queue.batches_popped");
  obs::Counter& rejected = obs::counter("queue.rejected");
  obs::Counter& expired = obs::counter("queue.deadline_expired");
  obs::Counter& cancelled = obs::counter("queue.cancelled");
  obs::Gauge& depth = obs::gauge("queue.depth");
  obs::Histogram& occupancy = obs::histogram("queue.batch_occupancy");
  obs::Histogram& head_wait_ms = obs::histogram("queue.head_wait_ms");
  obs::Histogram& live_shards = obs::histogram("queue.live_shards");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics m;
  return m;
}

}  // namespace

std::string request_desc(const InferenceRequest& req) {
  return "request seq=" + std::to_string(req.seq) + " shape=" +
         shape_str(req.input.shape());
}

void RequestQueue::set_capacity(std::size_t total) {
  std::lock_guard<std::mutex> lk(m_);
  cap_total_ = total;
}

RequestQueue::PushResult RequestQueue::push(InferenceRequest req) {
  PushResult res;
  {
    std::lock_guard<std::mutex> lk(m_);
    res.depth = pending_;
    if (shutdown_) {
      // Batcher may already have drained + exited.
      res.status = PushStatus::kShutdown;
      return res;
    }
    if (cap_total_ > 0 && pending_ >= cap_total_) {
      res.status = PushStatus::kQueueFull;
      queue_metrics().rejected.add();
      return res;
    }
    shards_[req.input.shape()].push_back(std::move(req));
    ++pending_;
    res.depth = pending_;
    queue_metrics().pushed.add();
    queue_metrics().depth.add(1);
  }
  cv_.notify_one();
  return res;
}

std::vector<InferenceRequest> RequestQueue::pop_batch(std::size_t max_batch,
                                                      int64_t max_wait_us) {
  if (max_batch < 1) max_batch = 1;
  std::vector<InferenceRequest> batch;
  QueueMetrics& qm = queue_metrics();

  // Dead requests (deadline passed / cancel token fired) are completed with
  // their typed error HERE, outside a batch: they must not occupy batch
  // slots, anchor the straggler deadline, or count toward occupancy.
  // Collected under the lock, completed after it drops (set_value/exception
  // wakes the waiting client; no reason to hold the queue mutex for that).
  std::vector<InferenceRequest> dead;
  auto reap_front = [&](std::deque<InferenceRequest>& shard) {
    // Returns once the shard head (if any) is live.
    const auto now = std::chrono::steady_clock::now();
    while (!shard.empty() &&
           (shard.front().expired(now) || shard.front().cancelled())) {
      dead.push_back(std::move(shard.front()));
      shard.pop_front();
      --pending_;
      qm.depth.add(-1);
    }
  };
  auto complete_dead = [&] {
    for (auto& req : dead) {
      if (req.cancelled()) {
        qm.cancelled.add();
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        req.result->try_error(std::make_exception_ptr(
            CancelledError("request cancelled before dispatch [" +
                           request_desc(req) + "]")));
      } else {
        qm.expired.add();
        expired_.fetch_add(1, std::memory_order_relaxed);
        req.result->try_error(std::make_exception_ptr(DeadlineExceededError(
            "deadline exceeded while queued [" + request_desc(req) + "]")));
      }
    }
    dead.clear();
  };

  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [this] { return shutdown_ || pending_ > 0; });
    if (pending_ == 0) return batch;  // shut down and drained

    // Round-robin shard pick: the first shape after the last one served, in
    // key order, wrapping. With K live shapes each gets every K-th batch, so
    // one hot resolution cannot starve the others.
    auto it = shards_.upper_bound(last_served_);
    if (it == shards_.end()) it = shards_.begin();
    // A shard may be empty here only if fail_pending emptied it; the
    // dead-shard path below erases it like a shard of dead requests.
    std::deque<InferenceRequest>& shard = it->second;
    reap_front(shard);
    if (shard.empty()) {
      // The whole shard was dead requests. Erase it and retry the pick —
      // but deliver the errors first (outside the lock) so cancelled
      // clients are not serialized behind further queue scanning.
      last_served_ = it->first;
      shards_.erase(it);
      if (!dead.empty()) {
        lk.unlock();
        complete_dead();
        lk.lock();
      }
      continue;
    }

    batch.push_back(std::move(shard.front()));
    shard.pop_front();
    --pending_;
    // Anchor the straggler deadline to when the head request was ENQUEUED,
    // not to now: if it already sat in the queue for max_wait_us (behind
    // other shards, or behind a slow forward), it must not wait again.
    const auto deadline = batch.front().enqueued_at +
                          std::chrono::microseconds(max_wait_us);
    while (batch.size() < max_batch) {
      reap_front(shard);
      if (shard.empty()) {
        if (shutdown_) break;
        // Map inserts don't invalidate `shard`/`it`, and this (sole)
        // consumer only erases the shard below, so the reference stays
        // valid across the wait.
        if (cv_.wait_until(lk, deadline, [this, &shard] {
              return shutdown_ || !shard.empty();
            })) {
          if (shard.empty()) break;  // woken by shutdown
          continue;                  // recheck liveness of the new arrivals
        } else {
          break;  // the head has now waited max_wait_us; ship a partial batch
        }
      }
      batch.push_back(std::move(shard.front()));
      shard.pop_front();
      --pending_;
    }
    last_served_ = it->first;
    const std::size_t live_shards = shards_.size();  // incl. the one served
    if (shard.empty()) shards_.erase(it);
    // Batch-shape telemetry: how full batches actually run, how long heads
    // waited for stragglers, and how many shapes were live when this batch
    // shipped — the occupancy histogram is the observable the batching
    // deadline and max_batch knobs get tuned against.
    qm.batches.add();
    qm.depth.add(-static_cast<int64_t>(batch.size()));
    qm.occupancy.record(static_cast<double>(batch.size()));
    qm.live_shards.record(static_cast<double>(live_shards));
    qm.head_wait_ms.record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch.front().enqueued_at)
            .count());
    break;
  }
  lk.unlock();
  complete_dead();
  return batch;
}

void RequestQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::fail_pending(std::exception_ptr error) {
  std::vector<InferenceRequest> doomed;
  {
    std::lock_guard<std::mutex> lk(m_);
    // Empty the shards but keep their map nodes: a pop_batch waiting for
    // stragglers holds a reference to its shard with the lock released,
    // and pop_batch erases empty shards itself.
    for (auto& kv : shards_) {
      for (auto& req : kv.second) doomed.push_back(std::move(req));
      kv.second.clear();
    }
    queue_metrics().depth.add(-static_cast<int64_t>(pending_));
    pending_ = 0;
  }
  // Complete outside the lock; try_error keeps this safe against a batcher
  // or watchdog racing to complete the same request.
  for (auto& req : doomed) req.result->try_error(error);
  cv_.notify_all();
  return doomed.size();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return pending_;
}

std::size_t RequestQueue::shard_count() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t live = 0;
  for (const auto& kv : shards_) live += kv.second.empty() ? 0 : 1;
  return live;
}

}  // namespace runtime
}  // namespace saufno
