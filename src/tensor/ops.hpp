// Neural-network primitive operations on CHW tensors (single sample; the
// training loops in this project are stochastic with batch size 1, which is
// sufficient for the small gate networks and keeps the substrate simple).
//
// Every forward op has a matching backward that maps the gradient of the loss
// w.r.t. the output back to gradients w.r.t. inputs and parameters; the nn
// layer classes in nn.hpp wire these together.
#pragma once

#include "tensor/backend.hpp"
#include "tensor/tensor.hpp"

namespace eco::tensor {

/// Parameters of a 2-D convolution.
struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 1;
  /// Kernel backend for conv2d_rows; kAuto resolves from the environment
  /// (engines stamp a concrete backend at construction).
  Backend backend = Backend::kAuto;

  [[nodiscard]] std::size_t out_extent(std::size_t in_extent) const noexcept {
    return (in_extent + 2 * padding - kernel) / stride + 1;
  }
};

/// conv2d forward. input: (C_in, H, W); weight: (C_out, C_in, K, K);
/// bias: (C_out). Returns (C_out, H_out, W_out).
[[nodiscard]] Tensor conv2d(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, const Conv2dSpec& spec);

/// Row-restricted conv2d: computes output rows [row_begin, row_end) into a
/// preallocated `out` of shape (C_out, H_out, W_out); rows outside the range
/// are left untouched. conv2d() is implemented on top of this, so the
/// per-cell arithmetic (and therefore the result, bitwise) is identical
/// for any row range — the stem bank's reference backend relies on this
/// when the temporal stem cache refreshes only the rows a frame delta
/// touched.
///
/// Dispatches on spec.backend (kAuto resolves from ECO_BACKEND) to
/// conv2d_rows_simd or conv2d_rows_reference; both produce
/// bitwise-identical outputs.
void conv2d_rows(const Tensor& input, const Tensor& weight, const Tensor& bias,
                 const Conv2dSpec& spec, std::size_t row_begin,
                 std::size_t row_end, Tensor& out);

/// The original 7-deep bounds-checked loop, kept verbatim as the semantic
/// ground truth; conv_kernel_test's ConvKernelEquivalence cases pin
/// conv2d_rows_simd bitwise against it.
void conv2d_rows_reference(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, const Conv2dSpec& spec,
                           std::size_t row_begin, std::size_t row_end,
                           Tensor& out);

/// Vectorized kernel, bitwise identical to conv2d_rows_reference (the build
/// disables FP contraction on this kernel's translation unit). Each lane
/// runs the reference's exact bias + ic→ky→kx chain for one output value,
/// with adjacent output channels of one cell in the lanes and weights
/// packed per call into thread-owned scratch. Channels past the last full
/// vector run the guarded scalar cell. SSE2 (or NEON) baseline; the lanes
/// widen to AVX2 when the CPU has it.
void conv2d_rows_simd(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      std::size_t row_begin, std::size_t row_end, Tensor& out);

/// Output channels of conv3x3_relu_pool_rows: the stem bank's fixed filters.
inline constexpr std::size_t kStemChannels = 8;

/// The fused stem block: a 3×3, stride-1, pad-1 conv of a (1, H, W) input
/// into kStemChannels channels (weight (8, 1, 3, 3), bias (8)), ReLU and a
/// 2×2 max-pool. Writes pooled rows [row_begin, row_end) of channels
/// [channel, channel + 8) of `out`, shape (C, H/2, W/2); every other value
/// of `out` is untouched. Bitwise equal to conv2d_rows_reference, then
/// ReLU, then maxpool2x2_rows (odd extents drop the last conv row or
/// column). Each vector lane runs the reference's bias → ky → kx chain for
/// one conv cell over zero-padded rows. A padded tap adds ±0, and ReLU maps
/// a resulting −0 to +0, which is exact only for finite weights (0·Inf is
/// NaN): non-finite weights throw std::invalid_argument, as do H < 2,
/// W < 2 and any shape or range mismatch. SSE2 (or NEON) baseline, AVX2
/// when the CPU has it.
void conv3x3_relu_pool_rows(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::size_t row_begin,
                            std::size_t row_end, Tensor& out,
                            std::size_t channel);

/// conv2d backward. Given d(loss)/d(output), fills gradients (accumulating
/// into grad_weight / grad_bias) and returns d(loss)/d(input).
[[nodiscard]] Tensor conv2d_backward(const Tensor& input, const Tensor& weight,
                                     const Tensor& grad_output,
                                     const Conv2dSpec& spec,
                                     Tensor& grad_weight, Tensor& grad_bias);

/// ReLU forward.
[[nodiscard]] Tensor relu(const Tensor& input);
/// In-place ReLU; elementwise identical to relu(). Lets arena-backed
/// pipelines rectify a conv output without a copy.
void relu_in_place(Tensor& t) noexcept;
/// ReLU backward: passes gradient where the *input* was positive.
[[nodiscard]] Tensor relu_backward(const Tensor& input,
                                   const Tensor& grad_output);

/// 2x2 max pooling with stride 2 (floor semantics). input: CHW, at least
/// 2x2.
[[nodiscard]] Tensor maxpool2x2(const Tensor& input);
/// Row-restricted pooling: output rows [row_begin, row_end) of channels
/// [channel, channel + C) of a preallocated `out` of shape (≥ channel + C,
/// H/2, W/2); everything else untouched. The single definition of the
/// per-cell max chain — maxpool2x2 and the stem bank's reference backend
/// both run through it.
void maxpool2x2_rows(const Tensor& input, std::size_t row_begin,
                     std::size_t row_end, Tensor& out,
                     std::size_t channel = 0);
[[nodiscard]] Tensor maxpool2x2_backward(const Tensor& input,
                                         const Tensor& grad_output);

/// Global average pooling: (C,H,W) -> (C).
[[nodiscard]] Tensor global_avg_pool(const Tensor& input);
[[nodiscard]] Tensor global_avg_pool_backward(const Shape& input_shape,
                                              const Tensor& grad_output);

/// Numerically stable softmax over a 1-D tensor.
[[nodiscard]] Tensor softmax(const Tensor& logits);

/// Sigmoid, elementwise.
[[nodiscard]] Tensor sigmoid(const Tensor& input);

/// Cross-entropy loss of 1-D logits against an integer target class.
/// Returns loss; if grad is non-null, writes d(loss)/d(logits) into it.
[[nodiscard]] float cross_entropy(const Tensor& logits, std::size_t target,
                                  Tensor* grad = nullptr);

/// Smooth-L1 (Huber, beta = 1) between prediction and target 1-D tensors,
/// averaged over elements; optionally writes d(loss)/d(pred).
[[nodiscard]] float smooth_l1(const Tensor& pred, const Tensor& target,
                              Tensor* grad = nullptr);

/// Mean squared error, averaged over elements; optional gradient.
[[nodiscard]] float mse(const Tensor& pred, const Tensor& target,
                        Tensor* grad = nullptr);

/// Linear layer forward: y = W·x + b. x: (in), W: (out, in), b: (out).
[[nodiscard]] Tensor linear(const Tensor& input, const Tensor& weight,
                            const Tensor& bias);

/// Linear backward; accumulates into grad_weight / grad_bias, returns dx.
[[nodiscard]] Tensor linear_backward(const Tensor& input, const Tensor& weight,
                                     const Tensor& grad_output,
                                     Tensor& grad_weight, Tensor& grad_bias);

}  // namespace eco::tensor
