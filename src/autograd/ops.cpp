#include "autograd/ops.h"

#include <cmath>

#include "common/logging.h"
#include "plan/trace.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace saufno {
namespace ops {
namespace {

using detail::Node;
using detail::VarImpl;
using detail::accumulate_grad;
using plan::OpCode;
namespace tr = plan::tr;

std::shared_ptr<Node> make_node(std::string name, std::vector<Var> inputs) {
  auto node = std::make_shared<Node>();
  node->name = std::move(name);
  node->inputs.reserve(inputs.size());
  for (auto& v : inputs) node->inputs.push_back(v.impl());
  return node;
}

}  // namespace

// Every op funnels its untaped return through plan::tr::record, which is a
// no-op (one thread-local load) unless a TraceSession is active on this
// thread — that hook is how the plan compiler sees the forward dataflow
// without the model code changing. Taped returns are never recorded: a
// trace runs only under NoGradGuard, so it never builds a tape.

Var add(const Var& a, const Var& b) {
  Tensor out = saufno::add(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kAdd, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("add", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    accumulate_grad(ia, reduce_to(g, ia->value.shape()));
    accumulate_grad(ib, reduce_to(g, ib->value.shape()));
  };
  return Var::from_op(std::move(out), node);
}

Var sub(const Var& a, const Var& b) {
  Tensor out = saufno::sub(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kSub, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("sub", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    accumulate_grad(ia, reduce_to(g, ia->value.shape()));
    accumulate_grad(ib, reduce_to(saufno::neg(g), ib->value.shape()));
  };
  return Var::from_op(std::move(out), node);
}

Var mul(const Var& a, const Var& b) {
  Tensor out = saufno::mul(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kMul, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("mul", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    accumulate_grad(ia, reduce_to(saufno::mul(g, ib->value), ia->value.shape()));
    accumulate_grad(ib, reduce_to(saufno::mul(g, ia->value), ib->value.shape()));
  };
  return Var::from_op(std::move(out), node);
}

Var div(const Var& a, const Var& b) {
  Tensor out = saufno::div(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kDiv, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("div", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2
    accumulate_grad(ia, reduce_to(saufno::div(g, ib->value), ia->value.shape()));
    Tensor gb = saufno::neg(
        saufno::div(saufno::mul(g, ia->value),
                    saufno::mul(ib->value, ib->value)));
    accumulate_grad(ib, reduce_to(gb, ib->value.shape()));
  };
  return Var::from_op(std::move(out), node);
}

Var add_scalar(const Var& a, float s) {
  tr::Attrs attrs;
  attrs.fval = s;
  Tensor out = saufno::add_scalar(a.value(), s);
  if (!should_record(a)) {
    return tr::record(OpCode::kAddScalar, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("add_scalar", {a});
  auto ia = a.impl();
  node->backward = [ia](const Tensor& g) { accumulate_grad(ia, g); };
  return Var::from_op(std::move(out), node);
}

Var mul_scalar(const Var& a, float s) {
  tr::Attrs attrs;
  attrs.fval = s;
  Tensor out = saufno::mul_scalar(a.value(), s);
  if (!should_record(a)) {
    return tr::record(OpCode::kMulScalar, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("mul_scalar", {a});
  auto ia = a.impl();
  node->backward = [ia, s](const Tensor& g) {
    accumulate_grad(ia, saufno::mul_scalar(g, s));
  };
  return Var::from_op(std::move(out), node);
}

Var neg(const Var& a) { return mul_scalar(a, -1.f); }

// Generic unary-op builder: f computes the value, dfdx(x) the local slope.
namespace {
template <typename FwdF, typename GradF>
Var unary_op(const char* name, OpCode op, const Var& a, FwdF fwd,
             GradF grad_of_input) {
  Tensor out = fwd(a.value());
  if (!should_record(a)) return tr::record(op, {&a}, Var(std::move(out)));
  auto node = make_node(name, {a});
  auto ia = a.impl();
  node->backward = [ia, grad_of_input](const Tensor& g) {
    accumulate_grad(ia, saufno::mul(g, grad_of_input(ia->value)));
  };
  return Var::from_op(std::move(out), node);
}
}  // namespace

Var relu(const Var& a) {
  return unary_op(
      "relu", OpCode::kRelu, a,
      [](const Tensor& x) { return saufno::relu(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) { return v > 0.f ? 1.f : 0.f; });
      });
}

Var gelu(const Var& a) {
  return unary_op(
      "gelu", OpCode::kGelu, a,
      [](const Tensor& x) { return saufno::gelu(x); },
      [](const Tensor& x) { return saufno::gelu_grad(x); });
}

Var tanh(const Var& a) {
  return unary_op(
      "tanh", OpCode::kTanh, a,
      [](const Tensor& x) { return saufno::tanh(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) {
          const float t = std::tanh(v);
          return 1.f - t * t;
        });
      });
}

Var sigmoid(const Var& a) {
  return unary_op(
      "sigmoid", OpCode::kSigmoid, a,
      [](const Tensor& x) { return saufno::sigmoid(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) {
          // Same simd::exp1 as the forward kernel, so s here is bitwise the
          // forward activation and the gradient is consistent with it.
          const float s = 1.f / (1.f + simd::exp1(-v));
          return s * (1.f - s);
        });
      });
}

Var exp(const Var& a) {
  return unary_op(
      "exp", OpCode::kExp, a,
      [](const Tensor& x) { return saufno::exp(x); },
      [](const Tensor& x) { return saufno::exp(x); });
}

Var log(const Var& a) {
  return unary_op(
      "log", OpCode::kLog, a,
      [](const Tensor& x) { return saufno::log(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) { return 1.f / v; });
      });
}

Var sqrt(const Var& a) {
  return unary_op(
      "sqrt", OpCode::kSqrt, a,
      [](const Tensor& x) { return saufno::sqrt(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) { return 0.5f / std::sqrt(v); });
      });
}

Var square(const Var& a) {
  return unary_op(
      "square", OpCode::kSquare, a,
      [](const Tensor& x) { return saufno::mul(x, x); },
      [](const Tensor& x) { return saufno::mul_scalar(x, 2.f); });
}

Var abs(const Var& a) {
  return unary_op(
      "abs", OpCode::kAbs, a,
      [](const Tensor& x) { return saufno::abs(x); },
      [](const Tensor& x) {
        return saufno::map(x, [](float v) {
          return v > 0.f ? 1.f : (v < 0.f ? -1.f : 0.f);
        });
      });
}

Var apply_act(const Var& a, Act act) {
  switch (act) {
    case Act::kRelu:
      return relu(a);
    case Act::kGelu:
      return gelu(a);
    case Act::kNone:
      break;
  }
  return a;
}

Var add_act(const Var& a, const Var& b, const Var& c, Act act) {
  SAUFNO_CHECK(a.shape() == b.shape() &&
                   (!c.defined() || c.shape() == a.shape()),
               "add_act: operands must share one shape");
  if (any_requires_grad({a, b, c})) {
    Var s = add(a, b);
    return apply_act(c.defined() ? add(s, c) : s, act);
  }
  Tensor out(a.shape());
  fused_add_act_into(a.value(), b.value(), c.defined() ? &c.value() : nullptr,
                     act, out);
  tr::Attrs attrs;
  attrs.act = act;
  return tr::record(OpCode::kFusedAddAct, {&a, &b, &c}, Var(std::move(out)),
                    attrs);
}

Var reshape(const Var& a, Shape new_shape) {
  Tensor out = a.value().reshape(std::move(new_shape));
  if (!should_record(a)) {
    return tr::record(OpCode::kReshape, {&a}, Var(std::move(out)));
  }
  auto node = make_node("reshape", {a});
  auto ia = a.impl();
  const Shape in_shape = a.shape();
  node->backward = [ia, in_shape](const Tensor& g) {
    // reshape shares storage; clone so grad accumulation cannot alias the
    // consumer's grad buffer.
    accumulate_grad(ia, g.clone().reshape(in_shape));
  };
  return Var::from_op(std::move(out), node);
}

Var permute(const Var& a, const std::vector<int64_t>& perm) {
  tr::Attrs attrs;
  attrs.ivals = perm;
  Tensor out = saufno::permute(a.value(), perm);
  if (!should_record(a)) {
    return tr::record(OpCode::kPermute, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("permute", {a});
  auto ia = a.impl();
  std::vector<int64_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int64_t>(i);
  }
  node->backward = [ia, inv](const Tensor& g) {
    accumulate_grad(ia, saufno::permute(g, inv));
  };
  return Var::from_op(std::move(out), node);
}

Var slice(const Var& a, int64_t dim, int64_t start, int64_t length) {
  const int64_t d = dim < 0 ? dim + a.value().dim() : dim;
  tr::Attrs attrs;
  attrs.ivals = {d, start, length};
  Tensor out = saufno::slice(a.value(), dim, start, length);
  if (!should_record(a)) {
    return tr::record(OpCode::kSlice, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("slice", {a});
  auto ia = a.impl();
  const Shape in_shape = a.shape();
  node->backward = [ia, in_shape, d, start, length](const Tensor& g) {
    // Scatter the slice gradient into a zero tensor of the input shape.
    Tensor gin = Tensor::zeros(in_shape);
    int64_t outer = 1, inner = 1;
    for (int64_t i = 0; i < d; ++i) outer *= in_shape[static_cast<std::size_t>(i)];
    for (std::size_t i = static_cast<std::size_t>(d) + 1; i < in_shape.size(); ++i) {
      inner *= in_shape[i];
    }
    const int64_t full = in_shape[static_cast<std::size_t>(d)];
    const float* src = g.data();
    float* dst = gin.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(src + o * length * inner, src + (o + 1) * length * inner,
                dst + (o * full + start) * inner);
    }
    accumulate_grad(ia, gin);
  };
  return Var::from_op(std::move(out), node);
}

Var cat(const std::vector<Var>& vs, int64_t dim) {
  std::vector<Tensor> ts;
  ts.reserve(vs.size());
  for (const auto& v : vs) ts.push_back(v.value());
  const int64_t d0 = dim < 0 ? dim + vs[0].value().dim() : dim;
  Tensor out = saufno::cat(ts, dim);
  if (!any_requires_grad(vs)) {
    Var r(std::move(out));
    tr::record_cat(vs, r, d0);
    return r;
  }
  auto node = make_node("cat", vs);
  const int64_t rank = vs[0].value().dim();
  const int64_t d = dim < 0 ? dim + rank : dim;
  std::vector<int64_t> sizes;
  sizes.reserve(vs.size());
  for (const auto& v : vs) sizes.push_back(v.value().shape()[static_cast<std::size_t>(d)]);
  auto impls = node->inputs;
  node->backward = [impls, sizes, d](const Tensor& g) {
    int64_t off = 0;
    for (std::size_t i = 0; i < impls.size(); ++i) {
      accumulate_grad(impls[i], saufno::slice(g, d, off, sizes[i]));
      off += sizes[i];
    }
  };
  return Var::from_op(std::move(out), node);
}

Var pad2d(const Var& a, int64_t top, int64_t bottom, int64_t left,
          int64_t right) {
  tr::Attrs attrs;
  attrs.ivals = {top, bottom, left, right};
  Tensor out = saufno::pad2d(a.value(), top, bottom, left, right);
  if (!should_record(a)) {
    return tr::record(OpCode::kPad2d, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("pad2d", {a});
  auto ia = a.impl();
  const int64_t rank = a.value().dim();
  const int64_t h = a.value().shape()[static_cast<std::size_t>(rank - 2)];
  const int64_t w = a.value().shape()[static_cast<std::size_t>(rank - 1)];
  node->backward = [ia, top, left, h, w, rank](const Tensor& g) {
    Tensor gi = saufno::slice(g, rank - 2, top, h);
    gi = saufno::slice(gi, rank - 1, left, w);
    accumulate_grad(ia, gi);
  };
  return Var::from_op(std::move(out), node);
}

Var matmul(const Var& a, const Var& b) {
  Tensor out = saufno::matmul(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kMatmul, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("matmul", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    // gA = g B^T ; gB = A^T g
    accumulate_grad(ia, saufno::matmul(g, transpose2d(ib->value)));
    accumulate_grad(ib, saufno::matmul(transpose2d(ia->value), g));
  };
  return Var::from_op(std::move(out), node);
}

Var bmm(const Var& a, const Var& b) {
  Tensor out = saufno::bmm(a.value(), b.value());
  if (!any_requires_grad({a, b})) {
    return tr::record(OpCode::kBmm, {&a, &b}, Var(std::move(out)));
  }
  auto node = make_node("bmm", {a, b});
  auto ia = a.impl(), ib = b.impl();
  node->backward = [ia, ib](const Tensor& g) {
    // Per-batch matmul adjoints, with batch-1 broadcasting reduced by sum.
    const Tensor& A = ia->value;
    const Tensor& B = ib->value;
    Tensor bt = saufno::permute(B, {0, 2, 1});
    Tensor at = saufno::permute(A, {0, 2, 1});
    Tensor ga = saufno::bmm(g, bt);  // [batch, M, K]
    Tensor gb = saufno::bmm(at, g);  // [batch, K, N] -- requires matching batch
    if (A.shape()[0] == 1 && g.shape()[0] != 1) {
      ga = saufno::sum_dim(ga, 0, /*keepdim=*/true);
    }
    if (B.shape()[0] == 1 && g.shape()[0] != 1) {
      // at has batch 1; bmm broadcast handled it. Reduce gb over batch.
      gb = saufno::sum_dim(gb, 0, /*keepdim=*/true);
    }
    accumulate_grad(ia, ga);
    accumulate_grad(ib, gb);
  };
  return Var::from_op(std::move(out), node);
}

Var sum_all(const Var& a) {
  // Scalar reductions exist for losses/metrics, not the serving forward.
  // The plan IR does not model them; recording nothing would freeze the
  // traced value into the plan as a constant, so a trace that reaches one
  // fails instead.
  SAUFNO_CHECK(!plan::tracing(), "sum_all has no plan opcode");
  Tensor out({1}, {saufno::sum_all(a.value())});
  if (!should_record(a)) return Var(std::move(out));
  auto node = make_node("sum_all", {a});
  auto ia = a.impl();
  node->backward = [ia](const Tensor& g) {
    accumulate_grad(ia, Tensor::full(ia->value.shape(), g.at(0)));
  };
  return Var::from_op(std::move(out), node);
}

Var mean_all(const Var& a) {
  const float inv_n = 1.f / static_cast<float>(a.numel());
  return mul_scalar(sum_all(a), inv_n);
}

Var sum_dim(const Var& a, int64_t dim, bool keepdim) {
  const int64_t rank = a.value().dim();
  const int64_t d = dim < 0 ? dim + rank : dim;
  tr::Attrs attrs;
  attrs.ivals = {d, keepdim ? 1 : 0};
  Tensor out = saufno::sum_dim(a.value(), dim, keepdim);
  if (!should_record(a)) {
    return tr::record(OpCode::kSumDim, {&a}, Var(std::move(out)), attrs);
  }
  auto node = make_node("sum_dim", {a});
  auto ia = a.impl();
  node->backward = [ia, d, keepdim](const Tensor& g) {
    // Broadcast g back along the reduced dim.
    Tensor gk = g;
    if (!keepdim) {
      Shape s = g.shape();
      if (ia->value.dim() == 1 && g.numel() == 1) {
        // reduced a 1-D tensor to scalar-ish [1]
        accumulate_grad(ia, Tensor::full(ia->value.shape(), g.at(0)));
        return;
      }
      s.insert(s.begin() + d, 1);
      gk = g.reshape(s);
    }
    accumulate_grad(
        ia, saufno::add(gk, Tensor::zeros(ia->value.shape())));  // broadcast
  };
  return Var::from_op(std::move(out), node);
}

Var softmax_lastdim(const Var& a) {
  Tensor out = saufno::softmax_lastdim(a.value());
  if (!should_record(a)) {
    return tr::record(OpCode::kSoftmax, {&a}, Var(std::move(out)));
  }
  auto node = make_node("softmax", {a});
  auto ia = a.impl();
  Tensor s = out;  // keep the softmax output for the backward rule
  node->backward = [ia, s](const Tensor& g) {
    // dL/dx = s * (g - sum(g*s, lastdim, keepdim))
    Tensor gs = saufno::mul(g, s);
    Tensor row_sum = saufno::sum_dim(gs, -1, /*keepdim=*/true);
    Tensor gx = saufno::mul(s, saufno::sub(g, row_sum));
    accumulate_grad(ia, gx);
  };
  return Var::from_op(std::move(out), node);
}

Var attention(const Var& q, const Var& k, const Var& v, float scale) {
  tr::Attrs attrs;
  attrs.fval = scale;
  const Shape& qs = q.shape();
  const Shape& vs = v.shape();
  SAUFNO_CHECK(qs.size() == 3 && vs.size() == 3,
               "attention requires 3-D q and v");
  Tensor out({qs[0], vs[1], qs[2]});
  attention_into(q.value(), k.value(), v.value(), scale, out);
  if (!any_requires_grad({q, k, v})) {
    return tr::record(OpCode::kAttention, {&q, &k, &v}, Var(std::move(out)),
                      attrs);
  }
  auto node = make_node("attention", {q, k, v});
  auto iq = q.impl(), ik = k.impl(), iv = v.impl();
  node->backward = [iq, ik, iv, scale](const Tensor& g) {
    // Recompute A = softmax(qᵀ k * scale) [B,N,N], then the adjoints of
    // out = bmm(v, A^T), the softmax and the scores bmm, in the composed
    // chain's own order.
    const Tensor& Q = iq->value;
    const Tensor& K = ik->value;
    const Tensor& V = iv->value;
    Tensor a = saufno::bmm(saufno::permute(Q, {0, 2, 1}), K);
    scaled_softmax_lastdim_into(a, scale, a);
    accumulate_grad(iv, saufno::bmm(g, a));
    // dL/dA[i,j] = sum_c g[c,i] v[c,j].
    Tensor ga = saufno::bmm(saufno::permute(g, {0, 2, 1}), V);
    // Softmax adjoint a * (ga - rowsum(ga * a)), then the scale.
    Tensor row_sum = saufno::sum_dim(saufno::mul(ga, a), -1, /*keepdim=*/true);
    Tensor gs = saufno::mul_scalar(saufno::mul(a, saufno::sub(ga, row_sum)),
                                   scale);
    accumulate_grad(iq, saufno::bmm(K, saufno::permute(gs, {0, 2, 1})));
    accumulate_grad(ik, saufno::bmm(Q, gs));
  };
  return Var::from_op(std::move(out), node);
}

Var resize_bilinear(const Var& a, int64_t oh, int64_t ow) {
  tr::Attrs attrs;
  attrs.ivals = {oh, ow};
  Tensor out = saufno::resize_bilinear(a.value(), oh, ow);
  if (!should_record(a)) {
    return tr::record(OpCode::kResizeBilinear, {&a}, Var(std::move(out)),
                      attrs);
  }
  auto node = make_node("resize_bilinear", {a});
  auto ia = a.impl();
  const int64_t rank = a.value().dim();
  const int64_t ih = a.value().shape()[static_cast<std::size_t>(rank - 2)];
  const int64_t iw = a.value().shape()[static_cast<std::size_t>(rank - 1)];
  node->backward = [ia, ih, iw](const Tensor& g) {
    accumulate_grad(ia, saufno::resize_bilinear_adjoint(g, ih, iw));
  };
  return Var::from_op(std::move(out), node);
}

Var mse_loss(const Var& pred, const Var& target) {
  SAUFNO_CHECK(pred.shape() == target.shape(),
               "mse_loss shape mismatch: " + shape_str(pred.shape()) +
                   " vs " + shape_str(target.shape()));
  return mean_all(square(sub(pred, target)));
}

Var relative_l2_loss(const Var& pred, const Var& target) {
  SAUFNO_CHECK(pred.shape() == target.shape(),
               "relative_l2_loss shape mismatch: " +
                   shape_str(pred.shape()) + " vs " +
                   shape_str(target.shape()));
  Var num = sqrt(sum_all(square(sub(pred, target))));
  // Small epsilon keeps the loss defined for an all-zero target and the
  // gradient bounded near it.
  Var den = sqrt(add_scalar(sum_all(square(target)), 1e-12f));
  return div(num, den);
}

}  // namespace ops
}  // namespace saufno
