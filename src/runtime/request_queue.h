#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/errors.h"
#include "tensor/tensor.h"

namespace saufno {
namespace runtime {

/// Single-completion promise wrapper shared between the queue/batcher and
/// whoever may need to fail a request from another thread (deadline expiry
/// at dequeue, drain timeout, the watchdog). std::promise itself must only
/// be completed once and is not safe against concurrent completion attempts,
/// so the atomic flag elects exactly one winner; losers are told (false) and
/// simply drop their result.
class ResultSlot {
 public:
  std::future<Tensor> get_future() { return promise_.get_future(); }

  bool try_value(Tensor v) {
    if (done_.exchange(true, std::memory_order_acq_rel)) return false;
    promise_.set_value(std::move(v));
    return true;
  }

  bool try_error(std::exception_ptr e) {
    if (done_.exchange(true, std::memory_order_acq_rel)) return false;
    promise_.set_exception(std::move(e));
    return true;
  }

  bool completed() const { return done_.load(std::memory_order_acquire); }

 private:
  std::promise<Tensor> promise_;
  std::atomic<bool> done_{false};
};

/// Per-request submission options (deadline + cancellation). Defaults are
/// inert: no deadline, no cancel token.
struct SubmitOptions {
  /// Absolute completion deadline. A request whose deadline passes is
  /// completed with DeadlineExceededError at dequeue time (it never takes a
  /// batch slot), at the batcher's pre-forward check, or — last line — at
  /// result delivery, so a future NEVER resolves with a value after its
  /// deadline. time_point::max() means no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  CancelToken cancel;
};

/// One in-flight inference request: a [C, H, W] input field, the shared
/// result slot its caller is waiting on, the enqueue timestamp used for
/// latency percentiles and the batching deadline, plus per-request deadline/
/// cancellation and the submit sequence number that names the request in
/// error messages.
struct InferenceRequest {
  Tensor input;
  std::shared_ptr<ResultSlot> result;
  std::chrono::steady_clock::time_point enqueued_at;
  SubmitOptions opts;
  int64_t seq = 0;  // engine-wide submit sequence number

  bool expired(std::chrono::steady_clock::time_point now) const {
    return now >= opts.deadline;
  }
  bool cancelled() const { return opts.cancel.cancelled(); }
};

/// "request seq=N shape=[C, H, W]" — the identity string used by every
/// per-request error message (a batch-wide failure must still name which
/// request it is talking about).
std::string request_desc(const InferenceRequest& req);

/// Shape-sharded MPSC queue the batcher thread drains. Requests are
/// bucketed by input shape, and `pop_batch` drains the buckets round-robin:
/// it picks the next non-empty shard, takes its head, then keeps collecting
/// from that shard (only) until the batch is full or the head request's
/// age exceeds `max_wait_us`.
///
/// Sharding is what keeps mixed-resolution traffic batchable: with a single
/// FIFO, an interleaved A,B,A,B,... stream makes every batch end at the
/// first foreign shape (head-of-line blocking, batch size collapses to 1).
/// Here a foreign-shape arrival lands in its own shard and the current
/// batch keeps filling. The deadline is anchored to the head request's
/// `enqueued_at` — not to pop time — so no request ever waits more than
/// `max_wait_us` for stragglers, no matter how long it sat queued behind
/// other shards.
///
/// Admission control: `set_capacity` bounds the total backlog across all
/// shards; an over-capacity push is refused (the caller turns that
/// into an OverloadedError with a retry-after hint). Expired or cancelled
/// requests are completed with their typed error at dequeue time instead of
/// occupying batch slots.
class RequestQueue {
 public:
  enum class PushStatus { kAccepted, kShutdown, kQueueFull };

  struct PushResult {
    PushStatus status = PushStatus::kAccepted;
    std::size_t depth = 0;  // total pending at decision time
    bool ok() const { return status == PushStatus::kAccepted; }
  };

  /// Bound the queue: at most `total` requests across all shards. 0 means
  /// unbounded (the default).
  void set_capacity(std::size_t total);

  /// Enqueue. Refused pushes (shutdown / over capacity) leave the request's
  /// promise untouched — the caller still owns the failure path, so a
  /// racing submit cannot strand a request with no batcher to serve it.
  PushResult push(InferenceRequest req);

  /// Collect up to `max_batch` same-shape requests from the next shard in
  /// round-robin order. Requests whose deadline already passed (or whose
  /// cancel token fired) are completed with DeadlineExceededError /
  /// CancelledError right here and never take a batch slot. Returns an
  /// empty vector only when the queue has been shut down and fully drained.
  std::vector<InferenceRequest> pop_batch(std::size_t max_batch,
                                          int64_t max_wait_us);

  /// Wake the batcher; pop_batch keeps returning queued work until the
  /// queue is empty, then returns empty batches.
  void shutdown();

  /// Complete every queued request with `error` and empty the queue (drain
  /// timeout, watchdog trip). Returns how many requests were failed.
  std::size_t fail_pending(std::exception_ptr error);

  /// Total pending requests across all shards.
  std::size_t size() const;

  /// Number of distinct shapes currently queued.
  std::size_t shard_count() const;

  /// Requests this queue completed with DeadlineExceededError / CancelledError
  /// at dequeue time (per-instance; the engine folds these into stats()).
  int64_t expired_count() const {
    return expired_.load(std::memory_order_relaxed);
  }
  int64_t cancelled_count() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex m_;
  std::condition_variable cv_;
  /// Per-shape buckets. Shards are created on first push of a shape and
  /// erased once drained, so long-lived servers don't accumulate entries
  /// for resolutions they no longer see.
  std::map<Shape, std::deque<InferenceRequest>> shards_;
  Shape last_served_;           // round-robin cursor over shard keys
  std::size_t pending_ = 0;     // total across shards
  std::size_t cap_total_ = 0;   // 0 = unbounded
  bool shutdown_ = false;
  std::atomic<int64_t> expired_{0};    // completed dead at dequeue
  std::atomic<int64_t> cancelled_{0};
};

}  // namespace runtime
}  // namespace saufno
