#include "ledger.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <complex>

#include "autograd/spectral_ops.h"
#include "fft/fft.h"
#include "plan/executor.h"
#include "stats.h"

namespace perfbench {

using saufno::Shape;
using saufno::Tensor;
using saufno::plan::Instr;
using saufno::plan::OpCode;
using saufno::plan::Plan;
using saufno::plan::SlotKind;

namespace {

double numel(const Shape& s) {
  double n = 1.0;
  for (int64_t d : s) n *= static_cast<double>(d);
  return n;
}

const Shape& slot_shape(const Plan& p, int32_t id) {
  return p.slots[static_cast<std::size_t>(id)].shape;
}

int32_t root_of(const Plan& p, int32_t id) {
  while (p.slots[static_cast<std::size_t>(id)].alias_of >= 0) {
    id = p.slots[static_cast<std::size_t>(id)].alias_of;
  }
  return id;
}

// glibc's defaults for the two malloc knobs the replay changes.
constexpr int kDefaultMmapMax = 65536;
constexpr int kDefaultTrimThreshold = 128 * 1024;

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string layer_group(const std::string& label) {
  const auto has = [&](const char* part) {
    return label.find(part) != std::string::npos;
  };
  if (has("attention")) return "attention";
  if (has("spectral")) return "spectral";
  if (has("unet")) return "unet";
  return "pointwise";
}

double instr_flops(const Plan& p, const Instr& in) {
  const Shape& out = slot_shape(p, in.out);
  const double n_out = numel(out);
  const auto in_shape = [&](std::size_t i) -> const Shape& {
    return slot_shape(p, in.in[i]);
  };
  switch (in.op) {
    case OpCode::kBmm:
    case OpCode::kMatmul: {
      // out [..., m, n] = a [..., m, k] x b [..., k, n]
      const Shape& a = in_shape(0);
      return 2.0 * n_out * static_cast<double>(a.back());
    }
    case OpCode::kConv2d: {
      // w [cout, cin, kh, kw]: 2*cin*kh*kw per output element (+ bias/act).
      const Shape& w = in_shape(1);
      return 2.0 * n_out * static_cast<double>(w[1] * w[2] * w[3]);
    }
    case OpCode::kSpectralConv2d: {
      // Complex channel mixing on the kept modes (8 flops per complex
      // multiply-add) plus the forward and inverse real FFTs
      // (~2.5 N log2 N each over the batch of planes).
      const Shape& x = in_shape(0);
      const Shape& w = in_shape(1);  // [cin, cout, 2*m1, m2, 2]
      const double b = static_cast<double>(x[0]);
      const double cin = static_cast<double>(x[1]);
      const double cout = static_cast<double>(w[1]);
      const double plane = static_cast<double>(x[2] * x[3]);
      const double modes = static_cast<double>(w[2] * w[3]);
      const double mix = 8.0 * b * cin * cout * modes;
      const double ffts = 2.5 * plane * std::log2(std::max(plane, 2.0)) *
                          b * (cin + cout);
      return mix + ffts;
    }
    case OpCode::kScaledSoftmax:
      return 5.0 * n_out;  // scale, max, sub, exp, sum, div
    case OpCode::kResizeBilinear:
      return 8.0 * n_out;  // four weighted taps
    case OpCode::kMaxPool2d: {
      const double k = static_cast<double>(in.ivals.empty() ? 2 : in.ivals[0]);
      return k * k * n_out;
    }
    default:
      return 0.0;  // not reported, or data movement only (permute)
  }
}

double instr_bytes(const Plan& p, const Instr& in) {
  double n = numel(slot_shape(p, in.out));
  for (int32_t s : in.in) n += numel(slot_shape(p, s));
  return n * sizeof(float);
}

double largest_temp_bytes(const Plan& p) {
  double best = 0.0;
  for (const auto& s : p.slots) {
    if (s.kind == SlotKind::kTemp && s.alias_of < 0) {
      best = std::max(best, numel(s.shape) * sizeof(float));
    }
  }
  return best;
}

std::map<std::string, double> Ledger::ms_by_group() const {
  std::map<std::string, double> out;
  for (const auto& c : instrs) out[c.group] += c.ms;
  return out;
}

std::map<std::string, double> Ledger::ms_by_op() const {
  std::map<std::string, double> out;
  for (const auto& c : instrs) out[c.op] += c.ms;
  return out;
}

double Ledger::flops_of_op(const std::string& op) const {
  double f = 0.0;
  for (const auto& c : instrs) {
    if (c.op == op) f += c.flops;
  }
  return f;
}

double Ledger::bytes_of_op(const std::string& op) const {
  double b = 0.0;
  for (const auto& c : instrs) {
    if (c.op == op) b += c.bytes;
  }
  return b;
}

Ledger replay_plan(const Plan& p, const Tensor& input, int reps) {
  const std::size_t n_slots = p.slots.size();
  // Execution order = level order, as the executor runs it.
  std::vector<int32_t> order;
  for (const auto& level : p.levels) {
    order.insert(order.end(), level.begin(), level.end());
  }
  // Alias views per root, and the last instruction reading each root, so a
  // temp is dropped as soon as nothing reads it (the replay allocates every
  // result on the heap; keeping all of them would hold the whole forward).
  std::vector<std::vector<int32_t>> views(n_slots);
  for (std::size_t i = 0; i < n_slots; ++i) {
    if (p.slots[i].alias_of >= 0) {
      views[static_cast<std::size_t>(root_of(p, static_cast<int32_t>(i)))]
          .push_back(static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> last_read(n_slots, -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (int32_t s : p.instrs[static_cast<std::size_t>(order[k])].in) {
      last_read[static_cast<std::size_t>(root_of(p, s))] =
          static_cast<int64_t>(k);
    }
  }
  const int32_t out_root = root_of(p, p.output_slot);

  Ledger ledger;
  std::vector<std::vector<double>> times(p.instrs.size());
  // The executor writes into one warm arena; the replay allocates every
  // result. With mmap off and trimming off the allocator keeps freed blocks,
  // so after the untimed first pass each allocation reuses warm pages
  // instead of faulting in fresh ones. Restored on return.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  for (int r = 0; r <= std::max(1, reps); ++r) {
    std::vector<Tensor> slots(n_slots);
    const auto bind_root = [&](int32_t root, const Tensor& value) {
      slots[static_cast<std::size_t>(root)] = value;
      for (int32_t v : views[static_cast<std::size_t>(root)]) {
        slots[static_cast<std::size_t>(v)] =
            value.reshape(p.slots[static_cast<std::size_t>(v)].shape);
      }
    };
    for (std::size_t i = 0; i < n_slots; ++i) {
      const auto& s = p.slots[i];
      if (s.alias_of >= 0) continue;
      if (s.kind == SlotKind::kParam || s.kind == SlotKind::kConst) {
        bind_root(static_cast<int32_t>(i), s.value);
      }
    }
    bind_root(p.input_slot, input);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Instr& ins = p.instrs[static_cast<std::size_t>(order[k])];
      // eval_single allocates and zero-fills its result, which the plan
      // executor (writing into its arena) never does. An equal allocation
      // made just before, and held across the call, prices that cost so it
      // can be taken out of the instruction's time.
      const auto t0 = std::chrono::steady_clock::now();
      Tensor out;
      {
        const Tensor same_size(slot_shape(p, ins.out));
        const auto t1 = std::chrono::steady_clock::now();
        out = saufno::plan::eval_single(ins, slots, slot_shape(p, ins.out));
        const double alloc_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r > 0) {
          times[static_cast<std::size_t>(order[k])].push_back(
              std::max(0.0, elapsed_ms(t1) - alloc_ms));
        }
      }
      bind_root(root_of(p, ins.out), out);
      for (int32_t s : ins.in) {
        const int32_t root = root_of(p, s);
        if (last_read[static_cast<std::size_t>(root)] ==
                static_cast<int64_t>(k) &&
            root != out_root &&
            p.slots[static_cast<std::size_t>(root)].kind == SlotKind::kTemp) {
          slots[static_cast<std::size_t>(root)] = Tensor();
          for (int32_t v : views[static_cast<std::size_t>(root)]) {
            slots[static_cast<std::size_t>(v)] = Tensor();
          }
        }
      }
    }
    ledger.output = slots[static_cast<std::size_t>(p.output_slot)];
  }
  mallopt(M_MMAP_MAX, kDefaultMmapMax);
  mallopt(M_TRIM_THRESHOLD, kDefaultTrimThreshold);

  for (int32_t idx : order) {
    const Instr& ins = p.instrs[static_cast<std::size_t>(idx)];
    InstrCost c;
    c.op = saufno::plan::op_name(ins.op);
    c.group = layer_group(ins.label);
    c.ms = median(times[static_cast<std::size_t>(idx)]);
    c.flops = instr_flops(p, ins);
    c.bytes = instr_bytes(p, ins);
    ledger.total_ms += c.ms;
    ledger.instrs.push_back(std::move(c));
  }
  return ledger;
}

FftCost time_plan_ffts(const Plan& p, int reps) {
  using saufno::cfloat;
  std::vector<double> fwd_ms, inv_ms;
  for (int r = 0; r < std::max(1, reps); ++r) {
    double fwd = 0.0, inv = 0.0;
    for (const Instr& ins : p.instrs) {
      if (ins.op != OpCode::kSpectralConv2d) continue;
      const Shape& x = slot_shape(p, ins.in[0]);
      const int64_t b = x[0], cin = x[1], h = x[2], w = x[3];
      const int64_t cout = ins.ivals[2];
      const auto mm =
          saufno::ops::spectral::make_mode_map(h, w, ins.ivals[0], ins.ivals[1]);
      const int64_t wk = mm.m2e;
      if (wk == 0) continue;
      std::vector<float> real(static_cast<std::size_t>(b * std::max(cin, cout) * h * w), 0.5f);
      std::vector<cfloat> spec(static_cast<std::size_t>(b * std::max(cin, cout) * h * wk));
      auto t0 = std::chrono::steady_clock::now();
      saufno::rfft_2d(real.data(), spec.data(), b * cin, h, w, wk);
      fwd += elapsed_ms(t0);
      t0 = std::chrono::steady_clock::now();
      saufno::irfft_2d(spec.data(), real.data(), b * cout, h, w, wk, 1.f);
      inv += elapsed_ms(t0);
    }
    fwd_ms.push_back(fwd);
    inv_ms.push_back(inv);
  }
  return FftCost{median(fwd_ms), median(inv_ms)};
}

}  // namespace perfbench
