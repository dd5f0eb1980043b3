#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace saufno {

using Shape = std::vector<int64_t>;

/// Number of elements described by a shape.
int64_t numel_of(const Shape& s);
/// Human-readable "[2, 3, 4]" form for error messages.
std::string shape_str(const Shape& s);
/// Row-major contiguous strides for a shape.
std::vector<int64_t> contiguous_strides(const Shape& s);

/// Dense row-major float32 tensor with shared storage.
///
/// Design notes:
///  - Always contiguous. View-producing ops (`reshape`) share storage; all
///    layout-changing ops (`permute`, `slice`, ...) copy. On a single CPU
///    core the copies are cheap relative to the gemm/FFT work and the
///    simplicity pays for itself in the autograd layer.
///  - Copying a Tensor is O(1) (shared_ptr bump); use `clone()` for a deep
///    copy. This mirrors the semantics ML users expect from torch.Tensor.
///  - All shape errors throw (SAUFNO_CHECK); silent UB is unacceptable in a
///    numerical library.
class Tensor {
 public:
  /// Empty 0-element tensor (shape []). `defined()` is false.
  Tensor();
  /// Uninitialized-to-zero tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor wrapping the given values (copied); values.size() must match.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Non-owning view over caller-managed memory (the plan executor's
  /// per-plan arena reservation binds every temp slot this way, so a
  /// compiled forward performs zero per-op allocations). The caller must
  /// keep `data` alive and fixed for the lifetime of every Tensor sharing
  /// this storage — including reshape views and O(1) copies. Contents are
  /// whatever the buffer holds; `clone()` still deep-copies to the heap.
  static Tensor wrap_external(float* data, Shape shape);
  /// Standard-normal entries drawn from `rng`.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.f,
                      float stddev = 1.f);
  /// Uniform entries in [lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo = 0.f,
                             float hi = 1.f);

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  /// Size along dimension `i`; negative indices count from the back.
  int64_t size(int64_t i) const;
  int64_t numel() const { return numel_; }

  float* data();
  const float* data() const;
  /// Element access for tests / tooling (linear index).
  float at(int64_t i) const;
  float& at(int64_t i);

  /// Shares storage; product of dims must match. A dim of -1 is inferred.
  Tensor reshape(Shape new_shape) const;
  /// Deep copy into fresh contiguous storage.
  Tensor clone() const;
  /// Scalar extraction; requires numel()==1.
  float item() const;

  void fill_(float v);
  /// In-place axpy: this += alpha * other (same shape). Used by autograd
  /// gradient accumulation and the optimizers, where allocating a fresh
  /// tensor per step would dominate runtime.
  void add_(const Tensor& other, float alpha = 1.f);
  void mul_(float v);

  /// True if shapes are equal and all entries are within atol+rtol*|ref|.
  bool allclose(const Tensor& other, float rtol = 1e-5f,
                float atol = 1e-6f) const;

 private:
  /// Storage is either an owned heap vector or caller-managed memory
  /// (Tensor::wrap_external).
  struct Storage;
  std::shared_ptr<Storage> storage_;
  Shape shape_;
  int64_t numel_ = 0;
};

}  // namespace saufno
