#pragma once

// Internal to the task runtime (parallel_for.cpp, task_group.cpp): the
// per-thread nesting depth that structured parallel constructs share, and
// the bounds on decomposition. Not part of the public API — kernels
// query runtime::in_parallel_region() instead.

namespace saufno {
namespace runtime {
namespace detail {

/// Nesting depth of task execution on the calling thread: 0 at top level,
/// d+1 while running a chunk/task spawned from depth d. A worker picking a
/// task off the pool inherits the SPAWNER's depth (carried in the task),
/// not its own history, so depth is a property of the lexical task tree —
/// identical for every thread count, which keeps decomposition decisions
/// (and the in_parallel_region() answer) scheduling-independent.
inline int& task_depth_ref() {
  thread_local int depth = 0;
  return depth;
}

/// Depth cap for decomposition: loops/groups nested deeper than this run
/// their chunks inline (same chunk boundaries, chunk order). Three levels
/// cover the deepest real seam — an op inside a plan level inside a batch
/// partition — and the fourth leaves one spare before fan-out overhead
/// outweighs the win on leaf kernels (a gemm's pack loop inside all that).
constexpr int kMaxTaskDepth = 4;

/// Bound on re-entrant "help" (running other pool tasks while waiting for
/// one's own): each helped task can itself wait and help, growing the
/// stack; four levels keeps the lane busy without unbounded recursion.
inline int& help_depth_ref() {
  thread_local int depth = 0;
  return depth;
}

/// RAII depth override around a chunk/task body.
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
