#include "plan/compile.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "plan/executor.h"

namespace saufno {
namespace plan {
namespace {

int32_t root_of(const Plan& p, int32_t s) {
  while (p.slots[static_cast<std::size_t>(s)].alias_of >= 0) {
    s = p.slots[static_cast<std::size_t>(s)].alias_of;
  }
  return s;
}

}  // namespace

Plan compile(Plan p) {
  const std::size_t n_slots = p.slots.size();
  std::vector<bool> dead(p.instrs.size(), false);

  // -- Pass 1: constant folding ---------------------------------------------
  // Evaluated through the executor's own kernels, so a folded value is
  // exactly what the interpreter would have computed at run time. Folded
  // consts are snapshots: a plan must be recompiled if parameters change
  // (the runner compiles per loaded checkpoint, so this never bites).
  {
    std::vector<Tensor> vals(n_slots);
    for (std::size_t s = 0; s < n_slots; ++s) {
      if (p.slots[s].kind == SlotKind::kParam ||
          p.slots[s].kind == SlotKind::kConst) {
        vals[s] = p.slots[s].value;
      }
    }
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
      const Instr& ins = p.instrs[i];
      bool foldable = !ins.in.empty();
      for (int32_t s : ins.in) {
        if (!vals[static_cast<std::size_t>(s)].defined()) {
          foldable = false;
          break;
        }
      }
      if (!foldable) continue;
      Slot& out = p.slots[static_cast<std::size_t>(ins.out)];
      Tensor v = eval_single(ins, vals, out.shape);
      out.kind = SlotKind::kConst;
      out.value = v;
      vals[static_cast<std::size_t>(ins.out)] = std::move(v);
      dead[i] = true;
      ++p.folded_ops;
    }
  }

  // -- Pass 2: reshape aliasing ---------------------------------------------
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    if (dead[i] || p.instrs[i].op != OpCode::kReshape) continue;
    Slot& out = p.slots[static_cast<std::size_t>(p.instrs[i].out)];
    out.alias_of = root_of(p, p.instrs[i].in[0]);
    dead[i] = true;
  }
  // Drop the folded and aliased instructions.
  {
    std::vector<Instr> live;
    live.reserve(p.instrs.size());
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
      if (!dead[i]) live.push_back(std::move(p.instrs[i]));
    }
    p.instrs = std::move(live);
  }
  // Each fused instruction (see ops::conv2d, ops::add_act) counts the
  // separate ops it stands for, less one.
  for (const Instr& ins : p.instrs) {
    if (ins.op == OpCode::kFusedAddAct) {
      p.fused_ops += static_cast<int64_t>(ins.in.size()) - 1;
    } else if (ins.act != Act::kNone) {
      ++p.fused_ops;
    }
  }

  // -- Pass 3: level assignment ---------------------------------------------
  // Inputs/params/consts sit at level 0; an instruction runs one level past
  // its deepest producer. Trace order is topological, and every transform
  // above preserves that, so one forward sweep suffices.
  int32_t max_level = 0;
  {
    std::vector<int32_t> def_level(n_slots, 0);
    for (auto& ins : p.instrs) {
      int32_t lvl = 1;
      for (int32_t s : ins.in) {
        lvl = std::max(lvl,
                       def_level[static_cast<std::size_t>(root_of(p, s))] + 1);
      }
      ins.level = lvl;
      def_level[static_cast<std::size_t>(ins.out)] = lvl;
      p.slots[static_cast<std::size_t>(ins.out)].def_level = lvl;
      max_level = std::max(max_level, lvl);
    }
    p.levels.assign(static_cast<std::size_t>(max_level), {});
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
      p.levels[static_cast<std::size_t>(p.instrs[i].level - 1)].push_back(
          static_cast<int32_t>(i));
    }
  }

  // -- Pass 4: liveness + arena packing -------------------------------------
  // Liveness is tracked at LEVEL granularity: a slot is live from its
  // defining level through the last level that reads it, and slots whose
  // intervals overlap get disjoint bytes. The executor runs levels in
  // order, so no instruction overwrites a temp that is still live,
  // whatever the order inside a level.
  {
    std::vector<int32_t> last(n_slots, 0);
    for (const auto& ins : p.instrs) {
      last[static_cast<std::size_t>(ins.out)] =
          p.slots[static_cast<std::size_t>(ins.out)].def_level;
    }
    for (const auto& ins : p.instrs) {
      for (int32_t s : ins.in) {
        auto r = static_cast<std::size_t>(root_of(p, s));
        last[r] = std::max(last[r], ins.level);
      }
    }
    // The output root is read after the last level (the executor clones it
    // into the result), so it may never be overwritten.
    last[static_cast<std::size_t>(root_of(p, p.output_slot))] = INT32_MAX;

    struct Placed {
      int64_t off, end;
      int32_t def, last;
    };
    std::vector<Placed> placed;
    p.arena_floats = 0;
    for (const auto& ins : p.instrs) {
      Slot& sl = p.slots[static_cast<std::size_t>(ins.out)];
      if (sl.kind != SlotKind::kTemp || sl.alias_of >= 0) continue;
      sl.last_use_level = last[static_cast<std::size_t>(ins.out)];
      // 16-float (64-byte) granules keep every slot cache-line aligned
      // inside the reservation.
      const int64_t size = (numel_of(sl.shape) + 15) & ~int64_t{15};
      std::vector<Placed> overlapping;
      for (const Placed& q : placed) {
        if (q.def <= sl.last_use_level && sl.def_level <= q.last) {
          overlapping.push_back(q);
        }
      }
      std::sort(overlapping.begin(), overlapping.end(),
                [](const Placed& a, const Placed& b) { return a.off < b.off; });
      int64_t cand = 0;
      for (const Placed& q : overlapping) {
        if (q.off >= cand + size) break;
        cand = std::max(cand, q.end);
      }
      sl.arena_offset = cand;
      placed.push_back({cand, cand + size, sl.def_level, sl.last_use_level});
      p.arena_floats = std::max(p.arena_floats, cand + size);
    }
  }

  return p;
}

}  // namespace plan
}  // namespace saufno
