#pragma once

#include <functional>
#include <memory>

namespace saufno {
namespace runtime {

namespace detail {
struct TaskGroupState;
}

/// Structured group of independent tasks on the shared ThreadPool.
///
///   TaskGroup g;
///   g.run([&] { ... });   // enqueued (or inline at pool size 1)
///   g.run([&] { ... });
///   g.wait();             // blocks until both finish; rethrows first error
///
/// Tasks run at nesting depth spawner+1 — the same lexical-tree depth rule
/// as parallel_for — so a parallel_for inside a task decomposes onto the
/// pool (up to 4 levels) and in_parallel_region() is true inside the
/// task body at every thread count. While wait() blocks, the waiting thread
/// helps by running other queued pool tasks, so nested groups cannot
/// deadlock: every wait chain bottoms out at a task actively executing on
/// some thread.
///
/// TaskGroup imposes no ordering between its tasks; determinism is the
/// caller's contract (disjoint outputs per task, or order-independent
/// combines), exactly as with parallel_for chunks. A group is reusable
/// after wait() returns. Destroying a group with tasks still pending waits
/// for them (swallowing errors) — call wait() to observe exceptions.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue one task. May be called from any thread, including from inside
  /// another of the group's tasks (fork-join recursion).
  void run(std::function<void()> fn);

  /// Block until every task run() so far has finished, then rethrow the
  /// first exception any of them threw (if any).
  void wait();

 private:
  std::shared_ptr<detail::TaskGroupState> st_;
};

}  // namespace runtime
}  // namespace saufno
