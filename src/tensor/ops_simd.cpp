// Vectorized kernels of the simd backend: conv2d_rows (Backend::kSimd) and
// the fused stem block conv3x3_relu_pool_rows.
//
// Every lane executes the reference's exact accumulation chain for one
// output value —
//
//   acc = bias; acc = acc + in[tap] * w[tap];   (taps in ic→ky→kx order)
//
// — as one vector register lane, so its float stream is bit-for-bit the
// scalar stream (IEEE add/mul are exactly rounded per lane, and this
// translation unit is compiled with -ffp-contract=off so no FMA contraction
// can perturb the chain). Two lane layouts share that contract:
//
// * Lane per output channel, for conv2d_rows (the learned gate's stride-2
//   convs, and any other shape). Weights are packed per call into
//   [ic][ky][kx][oc], so one vector load fetches a tap's weights for
//   adjacent output channels and one broadcast feeds them the tap's input.
//   Each cell walks only its in-bounds taps — exactly the ones the
//   reference's skip conditions keep, in the same order — so padded borders
//   and any stride vectorize too. Several channel vectors of one cell
//   advance together, which keeps the vector units busy while each lane's
//   dependent add chain retires. Channels after the last full vector run
//   the guarded scalar cell.
// * Lane per output cell, for the fused stem block (3×3, stride 1, one
//   input channel, eight output channels). With stride 1 a tap's lanes are
//   an unaligned contiguous load from a zero-padded copy of the input rows,
//   and all eight channel accumulators advance on each load. Two conv rows
//   at a time are rectified and max-ed into L1-sized scratch, then pooled
//   column pairs go straight into the output's channel slice.
//
// ISA widening: the TU is built for the baseline target (SSE2 on x86-64,
// or NEON), with AVX2 variants compiled through a function-level target
// attribute and selected at runtime through cpu_has_avx2(), as in
// detect/rpn_simd.cpp. Widening lanes never changes a result — every lane
// still runs the same exact chain.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "tensor/kernels_detail.hpp"
#include "tensor/ops.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

#if defined(__SSE2__) && defined(__x86_64__) && defined(__GNUC__)
#define ECO_HAVE_AVX2_VARIANTS 1
#if defined(__AVX2__)
#define ECO_AVX2_TARGET
#else
#define ECO_AVX2_TARGET __attribute__((target("avx2")))
#endif
#endif

namespace eco::tensor {

namespace {

// ---- 4-lane baseline vector (SSE2 or NEON) ---------------------------------

#if defined(__SSE2__)
#define ECO_HAVE_VEC4 1
using Vec4 = __m128;
inline Vec4 vec4_load(const float* p) { return _mm_loadu_ps(p); }
inline Vec4 vec4_splat(float x) { return _mm_set1_ps(x); }
inline void vec4_store(float* p, Vec4 v) { _mm_storeu_ps(p, v); }
/// acc + x * w as two exactly-rounded ops: the scalar `acc += x * w`.
inline Vec4 vec4_add_mul(Vec4 acc, Vec4 x, Vec4 w) {
  return _mm_add_ps(acc, _mm_mul_ps(x, w));
}
/// The reference's ReLU, `v > 0 ? v : 0`: maxps returns its second operand
/// unless the first is greater, so NaN and −0 become +0.
inline Vec4 vec4_relu(Vec4 v) { return _mm_max_ps(v, _mm_setzero_ps()); }
/// Max of two ReLU outputs (never NaN or −0, so operand order is moot).
inline Vec4 vec4_max(Vec4 a, Vec4 b) { return _mm_max_ps(a, b); }
/// Max of adjacent pairs: (a0∨a1, a2∨a3, b0∨b1, b2∨b3), ReLU outputs only.
inline Vec4 vec4_pair_max(Vec4 a, Vec4 b) {
  return _mm_max_ps(_mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
}
#elif defined(__ARM_NEON)
#define ECO_HAVE_VEC4 1
using Vec4 = float32x4_t;
inline Vec4 vec4_load(const float* p) { return vld1q_f32(p); }
inline Vec4 vec4_splat(float x) { return vdupq_n_f32(x); }
inline void vec4_store(float* p, Vec4 v) { vst1q_f32(p, v); }
/// vaddq/vmulq, not vmlaq (which may fuse): the scalar `acc += x * w`.
inline Vec4 vec4_add_mul(Vec4 acc, Vec4 x, Vec4 w) {
  return vaddq_f32(acc, vmulq_f32(x, w));
}
/// The reference's ReLU, `v > 0 ? v : 0` (vmaxq would keep NaN).
inline Vec4 vec4_relu(Vec4 v) {
  const Vec4 zero = vdupq_n_f32(0.0f);
  return vbslq_f32(vcgtq_f32(v, zero), v, zero);
}
/// Max of two ReLU outputs (never NaN or −0, so operand order is moot).
inline Vec4 vec4_max(Vec4 a, Vec4 b) { return vmaxq_f32(a, b); }
/// Max of adjacent pairs: (a0∨a1, a2∨a3, b0∨b1, b2∨b3), ReLU outputs only.
inline Vec4 vec4_pair_max(Vec4 a, Vec4 b) {
  const float32x4x2_t halves = vuzpq_f32(a, b);
  return vmaxq_f32(halves.val[0], halves.val[1]);
}
#endif

// ---- lane per output channel: conv2d_rows -----------------------------------

/// One call's geometry for the channel-lane kernels.
struct OcLaneConv {
  const float* in = nullptr;
  const float* packed = nullptr;  // [ic][ky][kx][oc], oc < lane_channels
  const float* bias = nullptr;
  float* out = nullptr;
  std::size_t in_channels = 0, h = 0, w = 0, k = 0, stride = 0, padding = 0;
  std::size_t lane_channels = 0;  // packed channels: whole vectors only
  std::size_t ow = 0, out_plane = 0;
  std::size_t row_begin = 0, row_end = 0;

  [[nodiscard]] std::ptrdiff_t origin(std::size_t o) const noexcept {
    return static_cast<std::ptrdiff_t>(o * stride) -
           static_cast<std::ptrdiff_t>(padding);
  }
};

/// The in-bounds taps [lo, hi) of a window starting at `origin` along an
/// axis of `extent` cells — the taps the reference's skip conditions keep —
/// and `first`, the input index of tap lo.
struct TapRange {
  std::size_t lo = 0, hi = 0, first = 0;
};

inline TapRange tap_range(std::ptrdiff_t origin, std::size_t k,
                          std::size_t extent) {
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -origin);
  const std::ptrdiff_t hi =
      std::min(static_cast<std::ptrdiff_t>(k),
               static_cast<std::ptrdiff_t>(extent) - origin);
  if (hi <= lo) return {};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
          static_cast<std::size_t>(origin + lo)};
}

/// Copies one cell's `n` channel values to their output planes.
inline void scatter_channels(const float* values, std::size_t n,
                             float* out_cell, std::size_t out_plane) {
  for (std::size_t j = 0; j < n; ++j) out_cell[j * out_plane] = values[j];
}

#if defined(ECO_HAVE_VEC4)
/// kBlocks adjacent 4-channel vectors starting at channel oc0, over every
/// cell of the row range.
template <std::size_t kBlocks>
void oc_lane_rows_vec4(const OcLaneConv& c, std::size_t oc0) {
  constexpr std::size_t kLanes = 4;
  const std::size_t in_plane = c.h * c.w;
  const std::size_t tap_stride = c.lane_channels;
  for (std::size_t oy = c.row_begin; oy < c.row_end; ++oy) {
    const TapRange ty = tap_range(c.origin(oy), c.k, c.h);
    for (std::size_t ox = 0; ox < c.ow; ++ox) {
      const TapRange tx = tap_range(c.origin(ox), c.k, c.w);
      const std::size_t in_first = ty.first * c.w + tx.first;
      Vec4 acc[kBlocks];
      for (std::size_t b = 0; b < kBlocks; ++b) {
        acc[b] = vec4_load(c.bias + oc0 + b * kLanes);
      }
      for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
        const float* in_row = c.in + ic * in_plane + in_first;
        const float* w_row =
            c.packed + ((ic * c.k + ty.lo) * c.k + tx.lo) * tap_stride + oc0;
        for (std::size_t ky = ty.lo; ky < ty.hi;
             ++ky, in_row += c.w, w_row += c.k * tap_stride) {
          const float* in_tap = in_row;
          const float* w_tap = w_row;
          for (std::size_t kx = tx.lo; kx < tx.hi;
               ++kx, ++in_tap, w_tap += tap_stride) {
            const Vec4 x = vec4_splat(*in_tap);
            for (std::size_t b = 0; b < kBlocks; ++b) {
              acc[b] = vec4_add_mul(acc[b], x, vec4_load(w_tap + b * kLanes));
            }
          }
        }
      }
      float values[kBlocks * kLanes];
      for (std::size_t b = 0; b < kBlocks; ++b) {
        vec4_store(values + b * kLanes, acc[b]);
      }
      scatter_channels(values, kBlocks * kLanes,
                       c.out + oc0 * c.out_plane + oy * c.ow + ox,
                       c.out_plane);
    }
  }
}
#endif  // ECO_HAVE_VEC4

#if defined(ECO_HAVE_AVX2_VARIANTS)
/// The 4-lane kernel's loop at eight channels per vector.
template <std::size_t kBlocks>
ECO_AVX2_TARGET void oc_lane_rows_avx2(const OcLaneConv& c, std::size_t oc0) {
  constexpr std::size_t kLanes = 8;
  const std::size_t in_plane = c.h * c.w;
  const std::size_t tap_stride = c.lane_channels;
  for (std::size_t oy = c.row_begin; oy < c.row_end; ++oy) {
    const TapRange ty = tap_range(c.origin(oy), c.k, c.h);
    for (std::size_t ox = 0; ox < c.ow; ++ox) {
      const TapRange tx = tap_range(c.origin(ox), c.k, c.w);
      const std::size_t in_first = ty.first * c.w + tx.first;
      __m256 acc[kBlocks];
      for (std::size_t b = 0; b < kBlocks; ++b) {
        acc[b] = _mm256_loadu_ps(c.bias + oc0 + b * kLanes);
      }
      for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
        const float* in_row = c.in + ic * in_plane + in_first;
        const float* w_row =
            c.packed + ((ic * c.k + ty.lo) * c.k + tx.lo) * tap_stride + oc0;
        for (std::size_t ky = ty.lo; ky < ty.hi;
             ++ky, in_row += c.w, w_row += c.k * tap_stride) {
          const float* in_tap = in_row;
          const float* w_tap = w_row;
          for (std::size_t kx = tx.lo; kx < tx.hi;
               ++kx, ++in_tap, w_tap += tap_stride) {
            const __m256 x = _mm256_broadcast_ss(in_tap);
            for (std::size_t b = 0; b < kBlocks; ++b) {
              acc[b] = _mm256_add_ps(
                  acc[b],
                  _mm256_mul_ps(x, _mm256_loadu_ps(w_tap + b * kLanes)));
            }
          }
        }
      }
      float values[kBlocks * kLanes];
      for (std::size_t b = 0; b < kBlocks; ++b) {
        _mm256_storeu_ps(values + b * kLanes, acc[b]);
      }
      scatter_channels(values, kBlocks * kLanes,
                       c.out + oc0 * c.out_plane + oy * c.ow + ox,
                       c.out_plane);
    }
  }
}
#endif  // ECO_HAVE_AVX2_VARIANTS

/// Calls run(std::integral_constant<n>, first) over the channel vectors
/// [first, end) in groups of at most kGroup, so each group's accumulators
/// stay in registers.
template <std::size_t kGroup, typename Run>
void for_each_block_group(std::size_t first, std::size_t end, const Run& run) {
  for (; first + kGroup <= end; first += kGroup) {
    run(std::integral_constant<std::size_t, kGroup>{}, first);
  }
  if constexpr (kGroup > 1) {
    if (first < end) for_each_block_group<kGroup - 1>(first, end, run);
  }
}

/// Packs weight (Cout, Cin, K, K) into [ic][ky][kx][oc] for the first
/// `lane_channels` output channels, in a buffer owned by the calling thread
/// (it grows to the largest layer the thread has run, then is reused).
const float* pack_oc_lanes(const Tensor& weight, std::size_t lane_channels) {
  thread_local std::vector<float> packed;
  const std::size_t taps = weight.size(1) * weight.size(2) * weight.size(3);
  packed.resize(taps * lane_channels);
  const float* wt = weight.data();
  for (std::size_t t = 0; t < taps; ++t) {
    float* dst = packed.data() + t * lane_channels;
    for (std::size_t oc = 0; oc < lane_channels; ++oc) {
      dst[oc] = wt[oc * taps + t];
    }
  }
  return packed.data();
}

void conv_rows_oc_lanes(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, const Conv2dSpec& spec,
                        std::size_t row_begin, std::size_t row_end,
                        Tensor& out) {
  OcLaneConv c;
  c.in = input.data();
  c.bias = bias.data();
  c.out = out.data();
  c.in_channels = spec.in_channels;
  c.h = input.size(1);
  c.w = input.size(2);
  c.k = spec.kernel;
  c.stride = spec.stride;
  c.padding = spec.padding;
  c.ow = out.size(2);
  c.out_plane = out.size(1) * c.ow;
  c.row_begin = row_begin;
  c.row_end = row_end;

  std::size_t lane_width = 0;
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (cpu_has_avx2()) lane_width = 8;
#endif
#if defined(ECO_HAVE_VEC4)
  if (lane_width == 0) lane_width = 4;
#endif
  if (lane_width != 0) {
    c.lane_channels = spec.out_channels / lane_width * lane_width;
  }
  if (c.lane_channels != 0 && row_begin < row_end) {
    c.packed = pack_oc_lanes(weight, c.lane_channels);
    const std::size_t blocks = c.lane_channels / lane_width;
#if defined(ECO_HAVE_AVX2_VARIANTS)
    if (lane_width == 8) {
      for_each_block_group<4>(0, blocks, [&](auto n, std::size_t first) {
        oc_lane_rows_avx2<decltype(n)::value>(c, first * 8);
      });
    }
#endif
#if defined(ECO_HAVE_VEC4)
    if (lane_width == 4) {
      for_each_block_group<6>(0, blocks, [&](auto n, std::size_t first) {
        oc_lane_rows_vec4<decltype(n)::value>(c, first * 4);
      });
    }
#endif
  }

  // Channels after the last full vector: the guarded scalar cell.
  const std::size_t taps = spec.in_channels * c.k * c.k;
  for (std::size_t oc = c.lane_channels; oc < spec.out_channels; ++oc) {
    const float* w_oc = weight.data() + oc * taps;
    float* out_c = c.out + oc * c.out_plane;
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      for (std::size_t ox = 0; ox < c.ow; ++ox) {
        out_c[oy * c.ow + ox] = detail::conv_cell_guarded(
            c.in, w_oc, c.bias[oc], c.in_channels, c.h, c.w, c.k,
            c.origin(oy), c.origin(ox));
      }
    }
  }
}

// ---- lane per output cell: the fused stem block -----------------------------

/// One call's geometry for the fused stem kernels. `padded` holds input
/// rows 2*row_begin - 1 through 2*row_end, `stride` floats each: a zero
/// column, the input row, then zeros (rows outside the input are all
/// zero). Pooled row j reads padded rows 2j..2j+3 for conv rows 2j and
/// 2j+1, over `conv_w` cells: 2*pooled_w rounded up to whole vectors, so
/// no lane tail exists. Cells from 2*pooled_w on are computed but never
/// pooled.
struct StemRows {
  const float* padded = nullptr;
  const float* weights = nullptr;  // [ky*3+kx][channel][lane] splats
  const float* bias = nullptr;     // (kStemChannels)
  float* vmax = nullptr;           // [channel][conv_w]: the pair's row max
  float* out = nullptr;            // `channel`'s plane, at pooled row_begin
  std::size_t stride = 0, conv_w = 0, pooled_w = 0, out_plane = 0;
  std::size_t pairs = 0;  // pooled rows: row_end - row_begin
};

/// Pooled row j from the pair's rectified row max:
/// out[c][px] = max(vmax[c][2px], vmax[c][2px + 1]).
inline void pool_stem_columns(const StemRows& s, std::size_t j) {
  for (std::size_t c = 0; c < kStemChannels; ++c) {
    const float* m = s.vmax + c * s.conv_w;
    float* o = s.out + c * s.out_plane + j * s.pooled_w;
    std::size_t px = 0;
#if defined(ECO_HAVE_VEC4)
    for (; px + 4 <= s.pooled_w; px += 4) {
      vec4_store(o + px, vec4_pair_max(vec4_load(m + 2 * px),
                                       vec4_load(m + 2 * px + 4)));
    }
#endif
    for (; px < s.pooled_w; ++px) o[px] = std::max(m[2 * px], m[2 * px + 1]);
  }
}

#if defined(ECO_HAVE_VEC4)
/// Four conv cells per vector; every pooled row runs its two conv rows,
/// each lane over the reference's bias → ky → kx chain with padded taps.
void stem_rows_vec4(const StemRows& s) {
  constexpr std::size_t kLanes = 4;
  const float* padded = s.padded;
  const float* weights = s.weights;
  const float* bias = s.bias;
  float* vmax = s.vmax;
  const std::size_t stride = s.stride, conv_w = s.conv_w;
  for (std::size_t j = 0; j < s.pairs; ++j) {
    for (std::size_t r = 0; r < 2; ++r) {
      const float* rows = padded + (2 * j + r) * stride;
      for (std::size_t x = 0; x < conv_w; x += kLanes) {
        Vec4 acc[kStemChannels];
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kStemChannels; ++c) {
          acc[c] = vec4_splat(bias[c]);
        }
        const float* w = weights;
#pragma GCC unroll 3
        for (std::size_t ky = 0; ky < 3; ++ky) {
#pragma GCC unroll 3
          for (std::size_t kx = 0; kx < 3; ++kx) {
            const Vec4 v = vec4_load(rows + ky * stride + x + kx);
#pragma GCC unroll 8
            for (std::size_t c = 0; c < kStemChannels; ++c, w += kLanes) {
              acc[c] = vec4_add_mul(acc[c], v, vec4_load(w));
            }
          }
        }
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kStemChannels; ++c) {
          float* m = vmax + c * conv_w + x;
          const Vec4 y = vec4_relu(acc[c]);
          vec4_store(m, r == 0 ? y : vec4_max(y, vec4_load(m)));
        }
      }
    }
    pool_stem_columns(s, j);
  }
}
#else
/// Builds without a vector ISA: each pooled cell is the max of its four
/// rectified guarded conv cells (all ≥ +0, so starting from +0 is exact).
void stem_rows_guarded(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, std::size_t row_begin,
                       std::size_t row_end, Tensor& out, std::size_t channel) {
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t ph = h / 2, pw = w / 2;
  for (std::size_t c = 0; c < kStemChannels; ++c) {
    float* out_c = out.data() + (channel + c) * ph * pw;
    for (std::size_t py = row_begin; py < row_end; ++py) {
      for (std::size_t px = 0; px < pw; ++px) {
        float m = 0.0f;
        for (std::size_t cell = 0; cell < 4; ++cell) {
          const float v = detail::conv_cell_guarded(
              input.data(), weight.data() + c * 9, bias[c], 1, h, w, 3,
              static_cast<std::ptrdiff_t>(2 * py + cell / 2) - 1,
              static_cast<std::ptrdiff_t>(2 * px + cell % 2) - 1);
          m = std::max(m, v > 0.0f ? v : 0.0f);
        }
        out_c[py * pw + px] = m;
      }
    }
  }
}
#endif  // ECO_HAVE_VEC4

#if defined(ECO_HAVE_AVX2_VARIANTS)
/// The 4-lane stem kernel at eight cells per vector.
ECO_AVX2_TARGET void stem_rows_avx2(const StemRows& s) {
  constexpr std::size_t kLanes = 8;
  const __m256 zero = _mm256_setzero_ps();
  const float* padded = s.padded;
  const float* weights = s.weights;
  const float* bias = s.bias;
  float* vmax = s.vmax;
  const std::size_t stride = s.stride, conv_w = s.conv_w;
  for (std::size_t j = 0; j < s.pairs; ++j) {
    for (std::size_t r = 0; r < 2; ++r) {
      const float* rows = padded + (2 * j + r) * stride;
      for (std::size_t x = 0; x < conv_w; x += kLanes) {
        __m256 acc[kStemChannels];
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kStemChannels; ++c) {
          acc[c] = _mm256_set1_ps(bias[c]);
        }
        const float* w = weights;
#pragma GCC unroll 3
        for (std::size_t ky = 0; ky < 3; ++ky) {
#pragma GCC unroll 3
          for (std::size_t kx = 0; kx < 3; ++kx) {
            const __m256 v = _mm256_loadu_ps(rows + ky * stride + x + kx);
#pragma GCC unroll 8
            for (std::size_t c = 0; c < kStemChannels; ++c, w += kLanes) {
              acc[c] = _mm256_add_ps(acc[c],
                                     _mm256_mul_ps(v, _mm256_loadu_ps(w)));
            }
          }
        }
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kStemChannels; ++c) {
          float* m = vmax + c * conv_w + x;
          const __m256 y = _mm256_max_ps(acc[c], zero);  // as vec4_relu
          _mm256_storeu_ps(m,
                           r == 0 ? y : _mm256_max_ps(y, _mm256_loadu_ps(m)));
        }
      }
    }
    pool_stem_columns(s, j);
  }
}
#endif  // ECO_HAVE_AVX2_VARIANTS

}  // namespace

void conv2d_rows_simd(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      std::size_t row_begin, std::size_t row_end, Tensor& out) {
  detail::require_conv_args(input, weight, bias, spec);
  const std::size_t oh = spec.out_extent(input.size(1));
  const std::size_t ow = spec.out_extent(input.size(2));
  detail::require(out.dim() == 3 && out.size(0) == spec.out_channels &&
                      out.size(1) == oh && out.size(2) == ow,
                  "conv2d_rows: output shape mismatch");
  detail::require(row_begin <= row_end && row_end <= oh,
                  "conv2d_rows: row range out of bounds");
  conv_rows_oc_lanes(input, weight, bias, spec, row_begin, row_end, out);
}

void conv3x3_relu_pool_rows(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::size_t row_begin,
                            std::size_t row_end, Tensor& out,
                            std::size_t channel) {
  detail::require(input.dim() == 3 && input.size(0) == 1,
                  "conv3x3_relu_pool_rows: input must be (1, H, W)");
  const std::size_t h = input.size(1), w = input.size(2);
  detail::require(h >= 2 && w >= 2,
                  "conv3x3_relu_pool_rows: input smaller than 2x2");
  detail::require(weight.shape() == Shape{kStemChannels, 1, 3, 3} &&
                      bias.shape() == Shape{kStemChannels},
                  "conv3x3_relu_pool_rows: weight or bias shape mismatch");
  detail::require(std::all_of(weight.data(), weight.data() + weight.numel(),
                              [](float v) { return std::isfinite(v); }),
                  "conv3x3_relu_pool_rows: non-finite weight");
  const std::size_t ph = h / 2, pw = w / 2;
  detail::require(out.dim() == 3 && channel + kStemChannels <= out.size(0) &&
                      out.size(1) == ph && out.size(2) == pw,
                  "conv3x3_relu_pool_rows: output shape mismatch");
  detail::require(row_begin <= row_end && row_end <= ph,
                  "conv3x3_relu_pool_rows: row range out of bounds");
  if (row_begin == row_end) return;

#if defined(ECO_HAVE_VEC4)
  std::size_t lanes = 4;
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (cpu_has_avx2()) lanes = 8;
#endif
  StemRows s;
  s.bias = bias.data();
  s.conv_w = (2 * pw + lanes - 1) / lanes * lanes;
  s.stride = s.conv_w + 2;
  s.pooled_w = pw;
  s.out_plane = ph * pw;
  s.pairs = row_end - row_begin;
  s.out = out.data() + channel * s.out_plane + row_begin * pw;

  // Padded rows, then the row max, in a buffer owned by the calling thread
  // (it grows to the largest call the thread has run, then is reused).
  thread_local std::vector<float> scratch;
  const std::size_t padded_rows = 2 * s.pairs + 2;
  scratch.assign(padded_rows * s.stride + kStemChannels * s.conv_w, 0.0f);
  for (std::size_t i = 0; i < padded_rows; ++i) {
    const std::size_t iy = 2 * row_begin + i;  // input row + 1
    if (iy == 0 || iy > h) continue;
    std::copy_n(input.data() + (iy - 1) * w, w,
                scratch.data() + i * s.stride + 1);
  }
  s.padded = scratch.data();
  s.vmax = scratch.data() + padded_rows * s.stride;

  alignas(32) float splats[9 * kStemChannels * 8];
  for (std::size_t tap = 0; tap < 9; ++tap) {
    for (std::size_t c = 0; c < kStemChannels; ++c) {
      std::fill_n(splats + (tap * kStemChannels + c) * lanes, lanes,
                  weight.data()[c * 9 + tap]);
    }
  }
  s.weights = splats;
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (lanes == 8) {
    stem_rows_avx2(s);
    return;
  }
#endif
  stem_rows_vec4(s);
#else
  stem_rows_guarded(input, weight, bias, row_begin, row_end, out, channel);
#endif
}

}  // namespace eco::tensor
