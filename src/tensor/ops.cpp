#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels_detail.hpp"

namespace eco::tensor {

namespace {
void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}
}  // namespace

using detail::require_conv_args;

void conv2d_rows_reference(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, const Conv2dSpec& spec,
                           std::size_t row_begin, std::size_t row_end,
                           Tensor& out) {
  require_conv_args(input, weight, bias, spec);
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel;
  require(out.dim() == 3 && out.size(0) == spec.out_channels &&
              out.size(1) == oh && out.size(2) == ow,
          "conv2d_rows: output shape mismatch");
  require(row_begin <= row_end && row_end <= oh,
          "conv2d_rows: row range out of bounds");

  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    const float b = bias[oc];
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = b;
        // Input window origin (may be negative with padding).
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy * spec.stride) -
            static_cast<std::ptrdiff_t>(spec.padding);
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>(ox * spec.stride) -
            static_cast<std::ptrdiff_t>(spec.padding);
        for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += input.at(ic, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix)) *
                     weight.at(oc, ic, ky, kx);
            }
          }
        }
        out.at(oc, oy, ox) = acc;
      }
    }
  }
}

void conv2d_rows(const Tensor& input, const Tensor& weight, const Tensor& bias,
                 const Conv2dSpec& spec, std::size_t row_begin,
                 std::size_t row_end, Tensor& out) {
  if (resolve_backend(spec.backend) == Backend::kReference) {
    conv2d_rows_reference(input, weight, bias, spec, row_begin, row_end, out);
    return;
  }
  conv2d_rows_simd(input, weight, bias, spec, row_begin, row_end, out);
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec) {
  require_conv_args(input, weight, bias, spec);
  const std::size_t oh = spec.out_extent(input.size(1));
  const std::size_t ow = spec.out_extent(input.size(2));
  Tensor out({spec.out_channels, oh, ow});
  conv2d_rows(input, weight, bias, spec, 0, oh, out);
  return out;
}

Tensor conv2d_backward(const Tensor& input, const Tensor& weight,
                       const Tensor& grad_output, const Conv2dSpec& spec,
                       Tensor& grad_weight, Tensor& grad_bias) {
  require(grad_output.dim() == 3, "conv2d_backward: grad_output must be CHW");
  if (grad_weight.shape() != weight.shape()) grad_weight = Tensor(weight.shape());
  if (grad_bias.numel() != spec.out_channels) {
    grad_bias = Tensor({spec.out_channels});
  }
  Tensor grad_input(input.shape());

  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = grad_output.size(1), ow = grad_output.size(2);
  const std::size_t k = spec.kernel;

  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float go = grad_output.at(oc, oy, ox);
        if (go == 0.0f) continue;
        grad_bias[oc] += go;
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy * spec.stride) -
            static_cast<std::ptrdiff_t>(spec.padding);
        const std::ptrdiff_t ix0 =
            static_cast<std::ptrdiff_t>(ox * spec.stride) -
            static_cast<std::ptrdiff_t>(spec.padding);
        for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const auto uy = static_cast<std::size_t>(iy);
              const auto ux = static_cast<std::size_t>(ix);
              grad_weight.at(oc, ic, ky, kx) += go * input.at(ic, uy, ux);
              grad_input.at(ic, uy, ux) += go * weight.at(oc, ic, ky, kx);
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor relu(const Tensor& input) {
  Tensor out = input;
  relu_in_place(out);
  return out;
}

void relu_in_place(Tensor& t) noexcept {
  float* v = t.data();
  const std::size_t n = t.numel();
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
}

Tensor relu_backward(const Tensor& input, const Tensor& grad_output) {
  require(input.shape() == grad_output.shape(),
          "relu_backward: shape mismatch");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (input[i] <= 0.0f) grad[i] = 0.0f;
  }
  return grad;
}

Tensor maxpool2x2(const Tensor& input) {
  require(input.dim() == 3, "maxpool2x2: input must be CHW");
  Tensor out({input.size(0), input.size(1) / 2, input.size(2) / 2});
  maxpool2x2_rows(input, 0, out.size(1), out);
  return out;
}

void maxpool2x2_rows(const Tensor& input, std::size_t row_begin,
                     std::size_t row_end, Tensor& out, std::size_t channel) {
  require(input.dim() == 3 && out.dim() == 3, "maxpool2x2_rows: CHW expected");
  const std::size_t c = input.size(0), oh = out.size(1), ow = out.size(2);
  const std::size_t h = input.size(1), w = input.size(2);
  require(h >= 2 && w >= 2, "maxpool2x2_rows: input too small");
  require(channel + c <= out.size(0) && oh <= h / 2 && ow <= w / 2,
          "maxpool2x2_rows: output shape mismatch");
  require(row_begin <= row_end && row_end <= oh,
          "maxpool2x2_rows: row range out of bounds");
  const float* in = input.data();
  float* o = out.data() + channel * oh * ow;
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float* in_c = in + ch * h * w;
    float* out_c = o + ch * oh * ow;
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      const float* r0 = in_c + (oy * 2) * w;
      const float* r1 = r0 + w;
      float* out_row = out_c + oy * ow;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t ix = ox * 2;
        // Comparison order matches the original per-cell max chain.
        float m = r0[ix];
        m = std::max(m, r0[ix + 1]);
        m = std::max(m, r1[ix]);
        m = std::max(m, r1[ix + 1]);
        out_row[ox] = m;
      }
    }
  }
}

Tensor maxpool2x2_backward(const Tensor& input, const Tensor& grad_output) {
  const std::size_t c = input.size(0);
  const std::size_t oh = grad_output.size(1), ow = grad_output.size(2);
  Tensor grad(input.shape());
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t iy = oy * 2, ix = ox * 2;
        // Route gradient to the argmax element of the 2x2 window.
        std::size_t by = iy, bx = ix;
        float best = input.at(ch, iy, ix);
        const std::size_t ys[2] = {iy, iy + 1};
        const std::size_t xs[2] = {ix, ix + 1};
        for (std::size_t yy : ys) {
          for (std::size_t xx : xs) {
            if (input.at(ch, yy, xx) > best) {
              best = input.at(ch, yy, xx);
              by = yy;
              bx = xx;
            }
          }
        }
        grad.at(ch, by, bx) += grad_output.at(ch, oy, ox);
      }
    }
  }
  return grad;
}

Tensor global_avg_pool(const Tensor& input) {
  require(input.dim() == 3, "global_avg_pool: input must be CHW");
  const std::size_t c = input.size(0);
  const std::size_t plane = input.size(1) * input.size(2);
  Tensor out({c});
  for (std::size_t ch = 0; ch < c; ++ch) {
    double acc = 0.0;
    const float* base = input.data() + ch * plane;
    for (std::size_t i = 0; i < plane; ++i) acc += base[i];
    out[ch] = static_cast<float>(acc / static_cast<double>(plane));
  }
  return out;
}

Tensor global_avg_pool_backward(const Shape& input_shape,
                                const Tensor& grad_output) {
  require(input_shape.size() == 3, "global_avg_pool_backward: CHW expected");
  const std::size_t c = input_shape[0];
  const std::size_t plane = input_shape[1] * input_shape[2];
  Tensor grad(input_shape);
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float g = grad_output[ch] / static_cast<float>(plane);
    float* base = grad.data() + ch * plane;
    std::fill(base, base + plane, g);
  }
  return grad;
}

Tensor softmax(const Tensor& logits) {
  Tensor out = logits;
  const float m = logits.max();
  double total = 0.0;
  for (float& v : out.vec()) {
    v = std::exp(v - m);
    total += v;
  }
  const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
  for (float& v : out.vec()) v *= inv;
  return out;
}

Tensor sigmoid(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.vec()) v = 1.0f / (1.0f + std::exp(-v));
  return out;
}

float cross_entropy(const Tensor& logits, std::size_t target, Tensor* grad) {
  require(target < logits.numel(), "cross_entropy: target out of range");
  const Tensor probs = softmax(logits);
  const float p = std::max(probs[target], 1e-12f);
  if (grad != nullptr) {
    *grad = probs;
    (*grad)[target] -= 1.0f;
  }
  return -std::log(p);
}

float smooth_l1(const Tensor& pred, const Tensor& target, Tensor* grad) {
  require(pred.shape() == target.shape(), "smooth_l1: shape mismatch");
  const auto n = static_cast<float>(pred.numel());
  if (grad != nullptr) *grad = Tensor(pred.shape());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float diff = pred[i] - target[i];
    const float ad = std::fabs(diff);
    if (ad < 1.0f) {
      loss += 0.5 * diff * diff;
      if (grad != nullptr) (*grad)[i] = diff / n;
    } else {
      loss += ad - 0.5;
      if (grad != nullptr) (*grad)[i] = (diff > 0.0f ? 1.0f : -1.0f) / n;
    }
  }
  return static_cast<float>(loss) / n;
}

float mse(const Tensor& pred, const Tensor& target, Tensor* grad) {
  require(pred.shape() == target.shape(), "mse: shape mismatch");
  const auto n = static_cast<float>(pred.numel());
  if (grad != nullptr) *grad = Tensor(pred.shape());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float diff = pred[i] - target[i];
    loss += static_cast<double>(diff) * diff;
    if (grad != nullptr) (*grad)[i] = 2.0f * diff / n;
  }
  return static_cast<float>(loss) / n;
}

Tensor linear(const Tensor& input, const Tensor& weight, const Tensor& bias) {
  require(weight.dim() == 2, "linear: weight must be (out,in)");
  require(input.numel() == weight.size(1), "linear: input size mismatch");
  require(bias.numel() == weight.size(0), "linear: bias size mismatch");
  const std::size_t out_n = weight.size(0), in_n = weight.size(1);
  Tensor out({out_n});
  for (std::size_t o = 0; o < out_n; ++o) {
    float acc = bias[o];
    const float* wrow = weight.data() + o * in_n;
    for (std::size_t i = 0; i < in_n; ++i) acc += wrow[i] * input[i];
    out[o] = acc;
  }
  return out;
}

Tensor linear_backward(const Tensor& input, const Tensor& weight,
                       const Tensor& grad_output, Tensor& grad_weight,
                       Tensor& grad_bias) {
  const std::size_t out_n = weight.size(0), in_n = weight.size(1);
  require(grad_output.numel() == out_n, "linear_backward: grad size mismatch");
  if (grad_weight.shape() != weight.shape()) grad_weight = Tensor(weight.shape());
  if (grad_bias.numel() != out_n) grad_bias = Tensor({out_n});
  Tensor grad_input({in_n});
  for (std::size_t o = 0; o < out_n; ++o) {
    const float go = grad_output[o];
    grad_bias[o] += go;
    const float* wrow = weight.data() + o * in_n;
    float* gwrow = grad_weight.data() + o * in_n;
    for (std::size_t i = 0; i < in_n; ++i) {
      gwrow[i] += go * input[i];
      grad_input[i] += go * wrow[i];
    }
  }
  return grad_input;
}

}  // namespace eco::tensor
