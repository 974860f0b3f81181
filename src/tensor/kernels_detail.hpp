// Shared internals of the conv2d_rows kernels (reference and simd TUs).
//
// Both backends run the same argument checks. conv_cell_guarded is the
// reference's per-cell loop over raw pointers; the simd conv runs it for
// every output channel after the last full vector (and the stem block for
// every cell on builds without a vector ISA), so those cells are the
// reference's chain by construction.
// Header-inline so the simd translation unit (compiled with its own flags)
// links against identical definitions.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace eco::tensor::detail {

inline void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

inline void require_conv_args(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, const Conv2dSpec& spec) {
  require(input.dim() == 3, "conv2d: input must be CHW");
  require(weight.dim() == 4, "conv2d: weight must be (Cout,Cin,K,K)");
  require(input.size(0) == spec.in_channels, "conv2d: input channel mismatch");
  require(weight.size(0) == spec.out_channels &&
              weight.size(1) == spec.in_channels &&
              weight.size(2) == spec.kernel && weight.size(3) == spec.kernel,
          "conv2d: weight shape mismatch");
  require(bias.numel() == spec.out_channels, "conv2d: bias shape mismatch");
}

/// One guarded (border) output cell: the exact per-cell loop of the
/// reference kernel over raw pointers — same tap-skip conditions, same
/// ic→ky→kx accumulation chain, so border cells are bitwise identical too.
inline float conv_cell_guarded(const float* in, const float* w_oc,
                               float bias_value, std::size_t in_channels,
                               std::size_t h, std::size_t w, std::size_t k,
                               std::ptrdiff_t iy0, std::ptrdiff_t ix0) {
  float acc = bias_value;
  const std::size_t in_plane = h * w;
  for (std::size_t ic = 0; ic < in_channels; ++ic) {
    const float* in_c = in + ic * in_plane;
    const float* w_ic = w_oc + ic * k * k;
    for (std::size_t ky = 0; ky < k; ++ky) {
      const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
      if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
      const float* in_row = in_c + static_cast<std::size_t>(iy) * w;
      const float* w_row = w_ic + ky * k;
      for (std::size_t kx = 0; kx < k; ++kx) {
        const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
        if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
        acc += in_row[static_cast<std::size_t>(ix)] * w_row[kx];
      }
    }
  }
  return acc;
}

}  // namespace eco::tensor::detail
