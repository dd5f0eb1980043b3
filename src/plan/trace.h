#pragma once

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "plan/ir.h"

namespace saufno {
namespace plan {

namespace detail_trace {
class TraceSessionImpl;
}  // namespace detail_trace

/// True while a TraceSession is recording on THIS thread. Every ops::
/// function consults this before touching the tracer, so the interpreted
/// path pays one call, a thread-local load and a predictable branch. The
/// thread-local stays inside trace.cpp: read through an extern
/// thread_local from another translation unit, UBSan at -O2 reports a null
/// load on its TLS wrapper.
bool tracing();

/// Records one traced forward of a model as a flat Plan.
///
/// Usage (see plan::PlanRunner):
///   NoGradGuard no_grad;
///   Var in(input);
///   TraceSession sess(model.named_parameters(), in);
///   Var out = model.forward(in);          // ops:: hooks record into sess
///   Plan p = sess.take_plan(out);
///
/// A trace runs only under NoGradGuard (the constructor throws otherwise):
/// the ops layer records only its untaped results, so every op of a traced
/// forward is recorded. An op with no opcode (ops::sum_all) throws when it
/// runs under a trace rather than freeze its value into the plan.
///
/// Scope: recording is thread-local and covers exactly the ops:: calls made
/// on the constructing thread between construction and destruction (model
/// kernels parallelize BELOW the ops:: layer, so worker threads never hit
/// the hooks). Input Vars whose impl the session has not seen are captured:
/// module parameters (matched against `named_params`) become kParam slots
/// sharing the parameter storage; other leaves (shape-derived coordinate
/// grids and the like) are cloned into kConst slots.
class TraceSession {
 public:
  TraceSession(const std::vector<std::pair<std::string, Var>>& named_params,
               const Var& input);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Finalize: resolves `output` to its slot and moves the recorded Plan
  /// out. The session records nothing afterwards.
  Plan take_plan(const Var& output);

 private:
  detail_trace::TraceSessionImpl* impl_;
};

/// RAII label pushed onto the active session's scope stack; instructions
/// recorded inside carry "outer/inner" labels. No-op (one TL load) when no
/// tracer is active, so modules open scopes unconditionally.
class TraceScope {
 public:
  explicit TraceScope(const char* label);
  explicit TraceScope(const std::string& label);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool pushed_ = false;
};

// -- Recording hooks used by the autograd ops layer -------------------------
// All are no-ops unless tracing() is true on the calling thread. `record`
// returns its `out` argument so op implementations can wrap their untaped
// return statements without restructuring.
namespace tr {

struct Attrs {
  std::vector<int64_t> ivals;
  float fval = 0.f;
  Act act = Act::kNone;
};

void record_op(OpCode op, std::initializer_list<const Var*> ins,
               const Var& out, Attrs attrs);
void record_cat(const std::vector<Var>& ins, const Var& out, int64_t dim);

inline Var record(OpCode op, std::initializer_list<const Var*> ins, Var out,
                  Attrs attrs = {}) {
  if (tracing()) record_op(op, ins, out, std::move(attrs));
  return out;
}

}  // namespace tr

}  // namespace plan
}  // namespace saufno
