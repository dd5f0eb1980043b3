#pragma once

#include <cstddef>
#include <cstring>

namespace saufno {
namespace runtime {

/// Thread-local, size-bucketed freelist behind Scratch<T> (spectral
/// transforms, im2col columns, gemm packing, attention row blocks).
///
/// - Requests are rounded up to the next power-of-two bucket (min 256 B);
///   each thread keeps a bounded freelist per bucket (count- and
///   byte-budgeted), so steady-state reuse never takes a lock and never
///   calls the system allocator.
/// - Scratch is the only caller, so a block is released on the thread that
///   acquired it. A release on another thread is still safe: the block
///   joins that thread's freelist (or is freed, once the freelist is full).
/// - Blocks of 128 KB and up are mapped from the OS, not carved from the
///   malloc heap, so a long-lived cached block never pins freed heap pages.
/// - Acquisitions are counted in obs: `arena.hits` (served from a cached
///   block) and `arena.misses` (had to allocate).
/// - Returned memory is UNINITIALIZED — callers that need zeros must clear
///   it themselves (Scratch::zero()).
/// - Determinism: buffer identity never feeds into numerics, so arena reuse
///   cannot perturb the bit-identical-across-thread-counts guarantee.
void* arena_acquire(std::size_t bytes);
void arena_release(void* p, std::size_t bytes);

/// Whole-plan workspace reservation: ONE 64-byte-aligned block sized at
/// plan-compile time, into which the plan executor binds every temp slot
/// via Tensor::wrap_external (disjoint liveness-packed offsets). Unlike
/// arena_acquire blocks, reservations are long-lived — they live as long as
/// the executor buffer that owns them — so they are plain aligned heap
/// allocations tracked by the `arena.reserved_bytes` and
/// `arena.reservations` obs gauges instead of freelist entries that would
/// pin a bucket forever.
class Reservation {
 public:
  Reservation() = default;
  explicit Reservation(std::size_t bytes);
  ~Reservation();
  Reservation(Reservation&& o) noexcept;
  /// Exchanges blocks: the one this held is released with `o`.
  Reservation& operator=(Reservation&& o) noexcept;
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;

  float* floats() { return static_cast<float*>(p_); }
  std::size_t bytes() const { return bytes_; }

 private:
  void* p_ = nullptr;
  std::size_t bytes_ = 0;
};

/// RAII typed scratch buffer backed by the workspace arena.
template <typename T>
class Scratch {
 public:
  explicit Scratch(std::size_t n)
      : n_(n), p_(static_cast<T*>(arena_acquire(n * sizeof(T)))) {}
  ~Scratch() { arena_release(p_, n_ * sizeof(T)); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* data() { return p_; }
  const T* data() const { return p_; }
  std::size_t size() const { return n_; }
  void zero() { std::memset(static_cast<void*>(p_), 0, n_ * sizeof(T)); }

 private:
  std::size_t n_;
  T* p_;
};

}  // namespace runtime
}  // namespace saufno
