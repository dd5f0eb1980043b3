#pragma once

#include <cstdint>
#include <functional>

namespace saufno {
namespace runtime {

/// Chunked parallel loop over [begin, end). `fn(chunk_begin, chunk_end)` is
/// invoked over consecutive chunks of exactly `grain` iterations (the last
/// chunk may be short). Chunk boundaries depend only on `grain` — never on
/// the thread count or on scheduling order — so a kernel that writes each
/// output index from exactly one chunk, or a reduction that keeps one
/// partial per chunk and combines them in chunk order, is bit-identical for
/// every SAUFNO_NUM_THREADS. Chunks are claimed dynamically by the pool
/// workers plus the calling thread; the call returns once all chunks have
/// finished. The first exception thrown by `fn` is rethrown on the caller.
///
/// This is the runtime's only fork-join primitive. A call at more than one
/// lane queues up to lanes-1 helper tasks; each helper, like the caller,
/// claims chunks from the loop's shared counter until none is left. Nested
/// calls (fn itself calling parallel_for) decompose the same way at every
/// depth. Once the caller finds no chunk left, the join just waits. It
/// cannot deadlock: a join waits only for chunks that are already running,
/// never for a queued helper (a helper that starts late finds no chunk and
/// returns). A running chunk can only block in the join of a loop it called
/// itself, one level deeper, so every chain of waits is finite and ends at
/// a chunk that is making progress.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

/// Deterministic parallel sum over [0, n): `chunk_sum(b, e)` returns the
/// double partial for one grain-sized chunk; partials are combined in chunk
/// order, so the result is identical for every thread count.
double parallel_sum(int64_t n, int64_t grain,
                    const std::function<double(int64_t, int64_t)>& chunk_sum);

}  // namespace runtime
}  // namespace saufno
