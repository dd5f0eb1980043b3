#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "runtime/parallel_for.h"

namespace saufno {

int64_t numel_of(const Shape& s) {
  int64_t n = 1;
  for (int64_t d : s) n *= d;
  return n;
}

std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << s[i];
  }
  os << ']';
  return os.str();
}

std::vector<int64_t> contiguous_strides(const Shape& s) {
  std::vector<int64_t> st(s.size(), 1);
  for (int i = static_cast<int>(s.size()) - 2; i >= 0; --i) {
    st[i] = st[i + 1] * s[i + 1];
  }
  return st;
}

struct Tensor::Storage {
  std::vector<float> heap;
  /// Non-owning external pointer (Tensor::wrap_external); never released.
  float* external = nullptr;

  Storage() = default;
  /// Heap storage, zero-initialized (the historical Tensor contract).
  explicit Storage(std::size_t n) : heap(n, 0.f) {}
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* ptr() { return external != nullptr ? external : heap.data(); }
  const float* ptr() const {
    return external != nullptr ? external : heap.data();
  }
};

Tensor::Tensor() = default;

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  for (int64_t d : shape_) {
    SAUFNO_CHECK(d >= 0, "negative dimension in shape " + shape_str(shape_));
  }
  numel_ = numel_of(shape_);
  storage_ = std::make_shared<Storage>(static_cast<std::size_t>(numel_));
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)) {
  numel_ = numel_of(shape_);
  SAUFNO_CHECK(static_cast<int64_t>(values.size()) == numel_,
               "value count " + std::to_string(values.size()) +
                   " does not match shape " + shape_str(shape_));
  storage_ = std::make_shared<Storage>();
  storage_->heap = std::move(values);
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::wrap_external(float* data, Shape shape) {
  SAUFNO_CHECK(data != nullptr, "wrap_external of a null pointer");
  Tensor t;
  for (int64_t d : shape) {
    SAUFNO_CHECK(d >= 0, "negative dimension in shape " + shape_str(shape));
  }
  t.numel_ = numel_of(shape);
  t.shape_ = std::move(shape);
  t.storage_ = std::make_shared<Storage>();
  t.storage_->external = data;
  return t;
}

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

int64_t Tensor::size(int64_t i) const {
  const int64_t d = dim();
  if (i < 0) i += d;
  SAUFNO_CHECK(i >= 0 && i < d, "dimension index out of range for shape " +
                                    shape_str(shape_));
  return shape_[static_cast<std::size_t>(i)];
}

float* Tensor::data() {
  SAUFNO_CHECK(defined(), "accessing data of an undefined tensor");
  return storage_->ptr();
}

const float* Tensor::data() const {
  SAUFNO_CHECK(defined(), "accessing data of an undefined tensor");
  return storage_->ptr();
}

float Tensor::at(int64_t i) const {
  SAUFNO_CHECK(i >= 0 && i < numel_, "linear index out of range");
  return storage_->ptr()[i];
}

float& Tensor::at(int64_t i) {
  SAUFNO_CHECK(i >= 0 && i < numel_, "linear index out of range");
  return storage_->ptr()[i];
}

Tensor Tensor::reshape(Shape new_shape) const {
  // Support one inferred (-1) dimension, torch-style.
  int64_t known = 1;
  int infer = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      SAUFNO_CHECK(infer == -1, "at most one -1 allowed in reshape");
      infer = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    SAUFNO_CHECK(known != 0 && numel_ % known == 0,
                 "cannot infer reshape dim: " + shape_str(shape_) + " -> " +
                     shape_str(new_shape));
    new_shape[static_cast<std::size_t>(infer)] = numel_ / known;
  }
  SAUFNO_CHECK(numel_of(new_shape) == numel_,
               "reshape element count mismatch: " + shape_str(shape_) +
                   " -> " + shape_str(new_shape));
  Tensor out;
  out.storage_ = storage_;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  return out;
}

Tensor Tensor::clone() const {
  if (!defined()) return Tensor();
  Tensor out;
  // Clones always land on the heap, even when the source was arena scratch:
  // a clone outlives hot-loop scope by definition.
  out.storage_ = std::make_shared<Storage>();
  out.storage_->heap.assign(storage_->ptr(),
                            storage_->ptr() + static_cast<std::size_t>(numel_));
  out.shape_ = shape_;
  out.numel_ = numel_;
  return out;
}

float Tensor::item() const {
  SAUFNO_CHECK(numel_ == 1, "item() requires a single-element tensor, got " +
                                shape_str(shape_));
  return storage_->ptr()[0];
}

void Tensor::fill_(float v) {
  float* p = data();
  for (int64_t i = 0; i < numel_; ++i) p[i] = v;
}

void Tensor::add_(const Tensor& other, float alpha) {
  SAUFNO_CHECK(shape_ == other.shape_,
               "add_ shape mismatch: " + shape_str(shape_) + " vs " +
                   shape_str(other.shape_));
  float* p = data();
  const float* q = other.data();
  // Gradient accumulation and optimizer steps funnel through this axpy;
  // disjoint chunks keep it bit-identical for any thread count.
  runtime::parallel_for(0, numel_, 8192, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) p[i] += alpha * q[i];
  });
}

void Tensor::mul_(float v) {
  float* p = data();
  for (int64_t i = 0; i < numel_; ++i) p[i] *= v;
}

bool Tensor::allclose(const Tensor& other, float rtol, float atol) const {
  if (shape_ != other.shape_) return false;
  const float* p = data();
  const float* q = other.data();
  for (int64_t i = 0; i < numel_; ++i) {
    const float tol = atol + rtol * std::fabs(q[i]);
    if (std::fabs(p[i] - q[i]) > tol) return false;
    if (std::isnan(p[i]) != std::isnan(q[i])) return false;
  }
  return true;
}

}  // namespace saufno
