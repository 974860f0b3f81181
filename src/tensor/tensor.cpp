#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace eco::tensor {

namespace {

thread_local std::uint64_t t_tensor_allocs = 0;

/// Records one buffer acquisition when `n` elements of fresh storage were
/// actually obtained (zero-size buffers are free).
inline void note_alloc(std::size_t n) noexcept {
  if (n > 0) ++t_tensor_allocs;
}

}  // namespace

std::uint64_t tensor_alloc_count() noexcept { return t_tensor_allocs; }

std::size_t shape_numel(const Shape& shape) noexcept {
  std::size_t n = 1;
  for (std::size_t s : shape) n *= s;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  note_alloc(data_.size());
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " +
                                std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
  note_alloc(data_.size());
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  note_alloc(data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    if (data_.capacity() < other.data_.size()) note_alloc(other.data_.size());
    shape_ = other.shape_;
    data_ = other.data_;
  }
  return *this;
}

Tensor Tensor::scalar(float value) { return Tensor({1}, {value}); }
Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from_vector(std::vector<float> values) {
  const std::size_t n = values.size();
  return Tensor({n}, std::move(values));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor copy = *this;
  copy.reshape(std::move(new_shape));
  return copy;
}

void Tensor::reshape(Shape new_shape) {
  if (shape_numel(new_shape) != data_.size()) {
    throw std::invalid_argument("reshape: numel mismatch (" +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(new_shape) + ")");
  }
  shape_ = std::move(new_shape);
}

void Tensor::resize(Shape new_shape) {
  const std::size_t n = shape_numel(new_shape);
  if (n > data_.capacity()) note_alloc(n);
  data_.resize(n);
  shape_ = std::move(new_shape);
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}
}  // namespace

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(*this, other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(*this, other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  check_same_shape(*this, other, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) noexcept {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::operator+=(float scalar) noexcept {
  for (float& v : data_) v += scalar;
  return *this;
}

float Tensor::sum() const noexcept {
  // Kahan summation: detector losses sum many small terms.
  double total = 0.0;
  for (float v : data_) total += v;
  return static_cast<float>(total);
}

float Tensor::mean() const noexcept {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::min() const noexcept {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const noexcept {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const noexcept {
  if (data_.empty()) return 0;
  return static_cast<std::size_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

float Tensor::sum_squares() const noexcept {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(total);
}

bool Tensor::equals(const Tensor& other) const noexcept {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tolerance) const noexcept {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::to_string(std::size_t max_elements) const {
  std::ostringstream out;
  out << "Tensor" << shape_to_string(shape_) << " {";
  const std::size_t n = std::min(max_elements, data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out << ", ";
    out << data_[i];
  }
  if (n < data_.size()) out << ", ...";
  out << "}";
  return out.str();
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out({m, n});
  // ikj loop order for cache friendliness on row-major data.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.data()[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      float* orow = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_channels: no inputs");
  for (const Tensor& p : parts) {
    if (p.dim() != 3) {
      throw std::invalid_argument("concat_channels: inputs must be CHW");
    }
    if (p.size(1) != parts.front().size(1) ||
        p.size(2) != parts.front().size(2)) {
      throw std::invalid_argument("concat_channels: H/W mismatch");
    }
  }
  std::size_t channels = 0;
  for (const Tensor& p : parts) channels += p.size(0);
  Tensor out({channels, parts.front().size(1), parts.front().size(2)});
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), out.data() + offset);
    offset += p.numel();
  }
  return out;
}

}  // namespace eco::tensor
