// A small dense float32 tensor. This is the numeric substrate for the stem
// CNNs, gate networks, and detector heads. It is deliberately minimal:
// row-major contiguous storage, up to 4 dimensions (interpreted as NCHW for
// images / feature maps), value semantics.
//
// The paper trains its networks in PyTorch; here the equivalent substrate is
// built from scratch (see DESIGN.md §2) so everything runs offline on CPU.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace eco::tensor {

/// Shape of a tensor; up to 4 axes in this library.
using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape) noexcept;
[[nodiscard]] std::string shape_to_string(const Shape& shape);

/// Thread-local, monotonic count of float-buffer acquisitions by Tensors on
/// this thread: constructions with data, copies, and capacity growth through
/// resize(). The execution layer samples deltas of this counter around
/// per-frame work to attribute tensor heap allocations to frames — a
/// steady-state frame running entirely out of a TensorArena reports a delta
/// of zero. Buffer reuse within existing capacity does not count.
[[nodiscard]] std::uint64_t tensor_alloc_count() noexcept;

/// Dense float32 tensor with value semantics.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Creates a tensor with explicit data (size must equal numel(shape)).
  Tensor(Shape shape, std::vector<float> data);

  // Copies count a buffer acquisition (see tensor_alloc_count); moves are
  // free and leave the source empty.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;
  ~Tensor() = default;

  /// Scalar tensor helpers.
  static Tensor scalar(float value);
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);

  /// 1-D tensor from values.
  static Tensor from_vector(std::vector<float> values);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t dim() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Size of axis `axis` (asserts in-range).
  [[nodiscard]] std::size_t size(std::size_t axis) const noexcept {
    assert(axis < shape_.size());
    return shape_[axis];
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::vector<float>& vec() noexcept { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const noexcept { return data_; }

  /// Flat element access.
  [[nodiscard]] float& operator[](std::size_t i) noexcept {
    assert(i < data_.size());
    return data_[i];
  }
  [[nodiscard]] float operator[](std::size_t i) const noexcept {
    assert(i < data_.size());
    return data_[i];
  }

  /// Multi-dimensional access (arity must match dim()). All overloads
  /// resolve through one flat_index() helper and are noexcept; bounds are
  /// assert-checked in debug builds only.
  [[nodiscard]] float& at(std::size_t i0) noexcept {
    return data_[flat_index(i0)];
  }
  [[nodiscard]] float at(std::size_t i0) const noexcept {
    return data_[flat_index(i0)];
  }
  [[nodiscard]] float& at(std::size_t i0, std::size_t i1) noexcept {
    return data_[flat_index(i0, i1)];
  }
  [[nodiscard]] float at(std::size_t i0, std::size_t i1) const noexcept {
    return data_[flat_index(i0, i1)];
  }
  [[nodiscard]] float& at(std::size_t i0, std::size_t i1,
                          std::size_t i2) noexcept {
    return data_[flat_index(i0, i1, i2)];
  }
  [[nodiscard]] float at(std::size_t i0, std::size_t i1,
                         std::size_t i2) const noexcept {
    return data_[flat_index(i0, i1, i2)];
  }
  [[nodiscard]] float& at(std::size_t i0, std::size_t i1, std::size_t i2,
                          std::size_t i3) noexcept {
    return data_[flat_index(i0, i1, i2, i3)];
  }
  [[nodiscard]] float at(std::size_t i0, std::size_t i1, std::size_t i2,
                         std::size_t i3) const noexcept {
    return data_[flat_index(i0, i1, i2, i3)];
  }

  /// Returns a copy with a new shape (numel must be preserved).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  /// In-place reshape (numel must be preserved).
  void reshape(Shape new_shape);

  /// Reshapes to `new_shape`, resizing storage as needed and reusing the
  /// existing buffer capacity when it suffices (no allocation, contents of
  /// retained elements unspecified). This is the TensorArena's workhorse:
  /// a pooled tensor resized to a recurring shape never re-allocates.
  void resize(Shape new_shape);

  /// Fills with a constant.
  void fill(float value) noexcept;

  /// Sets all elements to zero.
  void zero() noexcept { fill(0.0f); }

  // ----- elementwise arithmetic (shapes must match exactly) -----
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);
  Tensor& operator*=(float scalar) noexcept;
  Tensor& operator+=(float scalar) noexcept;

  [[nodiscard]] friend Tensor operator+(Tensor lhs, const Tensor& rhs) {
    lhs += rhs;
    return lhs;
  }
  [[nodiscard]] friend Tensor operator-(Tensor lhs, const Tensor& rhs) {
    lhs -= rhs;
    return lhs;
  }
  [[nodiscard]] friend Tensor operator*(Tensor lhs, const Tensor& rhs) {
    lhs *= rhs;
    return lhs;
  }
  [[nodiscard]] friend Tensor operator*(Tensor lhs, float scalar) {
    lhs *= scalar;
    return lhs;
  }
  [[nodiscard]] friend Tensor operator*(float scalar, Tensor rhs) {
    rhs *= scalar;
    return rhs;
  }

  // ----- reductions -----
  [[nodiscard]] float sum() const noexcept;
  [[nodiscard]] float mean() const noexcept;
  [[nodiscard]] float min() const noexcept;
  [[nodiscard]] float max() const noexcept;
  [[nodiscard]] std::size_t argmax() const noexcept;
  /// Sum of squares (useful for norms / weight decay).
  [[nodiscard]] float sum_squares() const noexcept;

  /// True if shapes and all elements match exactly.
  [[nodiscard]] bool equals(const Tensor& other) const noexcept;

  /// True if shapes match and elements are within `tolerance`.
  [[nodiscard]] bool allclose(const Tensor& other,
                              float tolerance = 1e-5f) const noexcept;

  [[nodiscard]] std::string to_string(std::size_t max_elements = 32) const;

 private:
  /// Row-major flat offset of a multi-dimensional index; the single site of
  /// the stride arithmetic shared by every at() overload.
  template <typename... Indices>
  [[nodiscard]] std::size_t flat_index(Indices... indices) const noexcept {
    assert(sizeof...(Indices) == shape_.size());
    const std::size_t idx[] = {indices...};
    std::size_t flat = 0;
    for (std::size_t axis = 0; axis < sizeof...(Indices); ++axis) {
      assert(idx[axis] < shape_[axis]);
      flat = flat * shape_[axis] + idx[axis];
    }
    return flat;
  }

  Shape shape_;
  std::vector<float> data_;
};

/// 2-D matrix multiply: (m×k) · (k×n) -> (m×n).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// Concatenates tensors along the channel axis (axis 0 of CHW tensors).
/// All inputs must share H and W.
[[nodiscard]] Tensor concat_channels(const std::vector<Tensor>& parts);

}  // namespace eco::tensor
