#pragma once

// Internal to the task runtime (parallel_for.cpp): the per-thread nesting
// depth of parallel_for chunks, and the bounds on decomposition. Not part
// of the public API — kernels query runtime::in_parallel_region() instead.

namespace saufno {
namespace runtime {
namespace detail {

/// Nesting depth of task execution on the calling thread: 0 at top level,
/// d+1 while running a chunk of a loop called at depth d. A worker picking
/// a chunk off the pool inherits the CALLER's depth (carried in the loop),
/// not its own history, so depth is a property of the lexical task tree —
/// identical for every thread count, which keeps decomposition decisions
/// (and the in_parallel_region() answer) scheduling-independent.
inline int& task_depth_ref() {
  thread_local int depth = 0;
  return depth;
}

/// Depth cap for decomposition: loops nested deeper than this run their
/// chunks inline (same chunk boundaries, chunk order). Three levels cover
/// the deepest real seam — a gemm's row blocks inside a bmm's batch loop
/// inside an engine batch partition — and the fourth leaves one spare
/// before fan-out overhead outweighs the win on leaf kernels.
constexpr int kMaxTaskDepth = 4;

/// Bound on re-entrant "help" (running other pool tasks while waiting for
/// one's own): each helped task can itself wait and help, growing the
/// stack; four levels keeps the lane busy without unbounded recursion.
inline int& help_depth_ref() {
  thread_local int depth = 0;
  return depth;
}

/// RAII depth override around a chunk body.
struct DepthScope {
  int prev;
  explicit DepthScope(int depth) : prev(task_depth_ref()) {
    task_depth_ref() = depth;
  }
  ~DepthScope() { task_depth_ref() = prev; }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;
};

}  // namespace detail
}  // namespace runtime
}  // namespace saufno
