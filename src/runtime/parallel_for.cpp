#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace saufno {
namespace runtime {
namespace {

/// Shared state of one parallel_for call. Kept alive by shared_ptr because a
/// worker may wake after the caller has already collected all chunks and
/// returned; such a late worker only reads `next`/`n_chunks` and exits.
struct LoopState {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t n_chunks = 0;
  const std::function<void(int64_t, int64_t)>* fn = nullptr;

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::atomic<bool> has_error{false};
  std::exception_ptr eptr;
  std::mutex m;
  std::condition_variable cv;

  void run_chunks() {
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) break;
      const int64_t b = begin + c * grain;
      const int64_t e = std::min(end, b + grain);
      if (!has_error.load(std::memory_order_relaxed)) {
        try {
          (*fn)(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lk(m);
          if (!has_error.exchange(true)) eptr = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n_chunks) {
        std::lock_guard<std::mutex> lk(m);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t n_chunks = (n + grain - 1) / grain;

  ThreadPool& pool = ThreadPool::instance();
  if (pool.num_threads() <= 1 || n_chunks <= 1) {
    // Inline path runs the SAME chunking in chunk order so reductions built
    // on per-chunk partials match the decomposed path bit-for-bit.
    for (int64_t c = 0; c < n_chunks; ++c) {
      const int64_t b = begin + c * grain;
      fn(b, std::min(end, b + grain));
    }
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->n_chunks = n_chunks;
  state->fn = &fn;  // caller blocks below, so the reference stays valid

  const int helpers = static_cast<int>(
      std::min<int64_t>(pool.num_threads() - 1, n_chunks - 1));
  for (int i = 0; i < helpers; ++i) {
    pool.submit([state] { state->run_chunks(); });
  }
  state->run_chunks();

  // Every chunk still unfinished is running on a worker; parallel_for.h
  // explains why this wait cannot deadlock.
  std::unique_lock<std::mutex> lk(state->m);
  state->cv.wait(lk, [&] {
    return state->done.load(std::memory_order_acquire) == n_chunks;
  });
  if (state->has_error.load()) std::rethrow_exception(state->eptr);
}

double parallel_sum(int64_t n, int64_t grain,
                    const std::function<double(int64_t, int64_t)>& chunk_sum) {
  if (n <= 0) return 0.0;
  if (grain < 1) grain = 1;
  const int64_t n_chunks = (n + grain - 1) / grain;
  std::vector<double> partials(static_cast<std::size_t>(n_chunks), 0.0);
  parallel_for(0, n, grain, [&](int64_t b, int64_t e) {
    partials[static_cast<std::size_t>(b / grain)] = chunk_sum(b, e);
  });
  double s = 0.0;
  for (const double p : partials) s += p;
  return s;
}

}  // namespace runtime
}  // namespace saufno
