#include "runtime/workspace.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "obs/metrics.h"

namespace saufno {
namespace runtime {
namespace {

// Buckets are powers of two from 256 B to 1 GiB; anything larger bypasses
// the cache and goes straight to the heap (such a block would pin an
// unreasonable amount of memory in a freelist).
constexpr int kMinBucketLog2 = 8;
constexpr int kMaxBucketLog2 = 30;
constexpr int kNumBuckets = kMaxBucketLog2 - kMinBucketLog2 + 1;
constexpr std::size_t kMaxBlocksPerBucket = 16;
// Per-thread retention budget: past this, released blocks go back to the
// heap instead of ratcheting a thread's RSS forever.
constexpr int64_t kMaxCachedBytesPerThread = int64_t{512} << 20;

// Blocks from this size up are mapped straight from the OS rather than
// taken from the malloc heap. A cached block lives as long as its thread;
// carved from the heap (where glibc puts even large requests once its
// dynamic mmap threshold has risen), it pins every freed page below it, and
// a long-lived serving process then keeps tens of MB of freed heap
// resident. 128 KB is glibc's own initial mmap threshold. Under
// AddressSanitizer every block stays a heap block, so it keeps its
// redzones and an overrun of scratch is still reported.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kMapBytes = ~std::size_t{0};
#else
constexpr std::size_t kMapBytes = std::size_t{1} << 17;
#endif

void* block_alloc(std::size_t bytes) {
  if (bytes < kMapBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void block_free(void* p, std::size_t bytes) {
  if (bytes < kMapBytes) {
    ::operator delete(p);
  } else {
    munmap(p, bytes);
  }
}

/// Bucket index for a request, or -1 when the size bypasses the cache.
int bucket_of(std::size_t bytes) {
  std::size_t cap = std::size_t{1} << kMinBucketLog2;
  for (int b = kMinBucketLog2; b <= kMaxBucketLog2; ++b, cap <<= 1) {
    if (bytes <= cap) return b;
  }
  return -1;
}

struct ArenaMetrics {
  obs::Counter& hits = obs::counter("arena.hits");
  obs::Counter& misses = obs::counter("arena.misses");
  obs::Gauge& reserved_bytes = obs::gauge("arena.reserved_bytes");
  obs::Gauge& reservations = obs::gauge("arena.reservations");
};

ArenaMetrics& arena_metrics() {
  static ArenaMetrics m;
  return m;
}

struct ThreadArena {
  std::vector<void*> lists[kNumBuckets];
  int64_t bytes_cached = 0;

  ~ThreadArena() {
    for (int b = 0; b < kNumBuckets; ++b) {
      for (void* p : lists[b]) {
        block_free(p, std::size_t{1} << (b + kMinBucketLog2));
      }
    }
  }
};

ThreadArena& local_arena() {
  thread_local ThreadArena arena;
  return arena;
}

}  // namespace

Reservation::Reservation(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;
  p_ = ::operator new(bytes, std::align_val_t{64});
  ArenaMetrics& m = arena_metrics();
  m.reserved_bytes.add(static_cast<int64_t>(bytes));
  m.reservations.add(1);
}

Reservation::~Reservation() {
  if (p_ == nullptr) return;
  ::operator delete(p_, std::align_val_t{64});
  ArenaMetrics& m = arena_metrics();
  m.reserved_bytes.add(-static_cast<int64_t>(bytes_));
  m.reservations.add(-1);
}

Reservation::Reservation(Reservation&& o) noexcept
    : p_(std::exchange(o.p_, nullptr)), bytes_(std::exchange(o.bytes_, 0)) {}

Reservation& Reservation::operator=(Reservation&& o) noexcept {
  std::swap(p_, o.p_);
  std::swap(bytes_, o.bytes_);
  return *this;
}

void* arena_acquire(std::size_t bytes) {
  SAUFNO_FAULT_POINT("alloc");
  ArenaMetrics& m = arena_metrics();
  const int b = bucket_of(bytes);
  if (b >= 0) {
    ThreadArena& a = local_arena();
    auto& list = a.lists[b - kMinBucketLog2];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      a.bytes_cached -= int64_t{1} << b;
      m.hits.add();
      return p;
    }
  }
  m.misses.add();
  return block_alloc(b >= 0 ? std::size_t{1} << b : bytes);
}

void arena_release(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  const int b = bucket_of(bytes);
  if (b >= 0) {
    ThreadArena& a = local_arena();
    auto& list = a.lists[b - kMinBucketLog2];
    const int64_t size = int64_t{1} << b;
    if (list.size() < kMaxBlocksPerBucket &&
        a.bytes_cached + size <= kMaxCachedBytesPerThread) {
      list.push_back(p);
      a.bytes_cached += size;
      return;
    }
  }
  block_free(p, b >= 0 ? std::size_t{1} << b : bytes);
}

}  // namespace runtime
}  // namespace saufno
