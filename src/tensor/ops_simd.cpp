// Vectorized conv2d_rows kernel (Backend::kSimd).
//
// Every lane executes conv2d_rows_reference's exact accumulation chain for
// one output value —
//
//   acc = bias; acc = acc + in[tap] * w[tap];   (taps in ic→ky→kx order)
//
// — as one vector register lane, so its float stream is bit-for-bit the
// scalar stream (IEEE add/mul are exactly rounded per lane, and this
// translation unit is compiled with -ffp-contract=off so no FMA contraction
// can perturb the chain). Two lane layouts share that contract:
//
// * Lane per output cell, for k==3 / stride==1 (the stem convs). The
//   interior computes four adjacent output cells of one channel at once;
//   with stride 1 the lane loads are four consecutive cells' taps, i.e. an
//   unaligned contiguous load at the scalar tap pointer. Borders and lane
//   tails run the guarded scalar cell.
// * Lane per output channel, for every other shape (the learned gate's
//   stride-2 convs). Weights are packed per call into [ic][ky][kx][oc], so
//   one vector load fetches a tap's weights for adjacent output channels
//   and one broadcast feeds them the tap's input. Each cell walks only its
//   in-bounds taps — exactly the ones the reference's skip conditions keep,
//   in the same order — so padded borders and any stride vectorize too.
//   Several channel vectors of one cell advance together, which keeps the
//   vector units busy while each lane's dependent add chain retires.
//   Channels after the last full vector run the guarded scalar cell.
//
// ISA widening: the TU is built for the baseline target (SSE2 on x86-64,
// or NEON), with the AVX2 channel-lane variant compiled through a
// function-level target attribute and selected at runtime through
// cpu_has_avx2(), as in detect/rpn_simd.cpp. Widening lanes never changes a
// result — every lane still runs the same exact chain.
#include <algorithm>
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
#endif

// ---- lane per output cell: k==3, stride==1 ----------------------------------

/// Vectorized k==3, stride==1 interior span: writes out_row[ox_lo, ox_hi).
/// `in_y` points at the input row iy0 (already offset for padding).
inline void conv3x1_interior_span(const float* in_y, const float* w_oc,
                                  float bias_value, std::size_t in_channels,
                                  std::size_t in_plane, std::size_t w,
                                  std::size_t p, std::size_t ox_lo,
                                  std::size_t ox_hi, float* out_row) {
  std::size_t ox = ox_lo;
#if defined(ECO_HAVE_VEC4)
  for (; ox + 4 <= ox_hi; ox += 4) {
    Vec4 acc = vec4_splat(bias_value);
    const float* in_c = in_y + (ox - p);
    const float* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      const float* r0 = in_c;
      const float* r1 = in_c + w;
      const float* r2 = in_c + 2 * w;
      acc = vec4_add_mul(acc, vec4_load(r0), vec4_splat(w9[0]));
      acc = vec4_add_mul(acc, vec4_load(r0 + 1), vec4_splat(w9[1]));
      acc = vec4_add_mul(acc, vec4_load(r0 + 2), vec4_splat(w9[2]));
      acc = vec4_add_mul(acc, vec4_load(r1), vec4_splat(w9[3]));
      acc = vec4_add_mul(acc, vec4_load(r1 + 1), vec4_splat(w9[4]));
      acc = vec4_add_mul(acc, vec4_load(r1 + 2), vec4_splat(w9[5]));
      acc = vec4_add_mul(acc, vec4_load(r2), vec4_splat(w9[6]));
      acc = vec4_add_mul(acc, vec4_load(r2 + 1), vec4_splat(w9[7]));
      acc = vec4_add_mul(acc, vec4_load(r2 + 2), vec4_splat(w9[8]));
    }
    vec4_store(out_row + ox, acc);
  }
#endif
  // Lane tail (and the whole span on scalar-only builds): the same
  // unrolled chain, one cell at a time.
  for (; ox < ox_hi; ++ox) {
    float acc = bias_value;
    const float* in_c = in_y + (ox - p);
    const float* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      const float* r0 = in_c;
      const float* r1 = in_c + w;
      const float* r2 = in_c + 2 * w;
      acc += r0[0] * w9[0];
      acc += r0[1] * w9[1];
      acc += r0[2] * w9[2];
      acc += r1[0] * w9[3];
      acc += r1[1] * w9[4];
      acc += r1[2] * w9[5];
      acc += r2[0] * w9[6];
      acc += r2[1] * w9[7];
      acc += r2[2] * w9[8];
    }
    out_row[ox] = acc;
  }
}

void conv_rows_cell_lanes(const Tensor& input, const Tensor& weight,
                          const Tensor& bias, const Conv2dSpec& spec,
                          std::size_t row_begin, std::size_t row_end,
                          Tensor& out) {
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = out.size(1), ow = out.size(2);
  const std::size_t k = spec.kernel, p = spec.padding;

  // Interior ranges: cells whose 3×3 window lies fully inside the input.
  const std::size_t oy_lo = std::min(oh, p);
  const std::size_t oy_hi = (h + p >= k) ? std::min(oh, h + p - k + 1) : 0;
  const std::size_t ox_lo = std::min(ow, p);
  const std::size_t ox_hi = (w + p >= k) ? std::min(ow, w + p - k + 1) : 0;

  const float* in = input.data();
  const float* wt = weight.data();
  float* out_data = out.data();
  const std::size_t in_plane = h * w;
  const std::size_t out_plane = oh * ow;
  const std::size_t w_oc_stride = spec.in_channels * k * k;

  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    const float b = bias[oc];
    const float* w_oc = wt + oc * w_oc_stride;
    float* out_c = out_data + oc * out_plane;
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      float* out_row = out_c + oy * ow;
      const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy) -
                                 static_cast<std::ptrdiff_t>(p);
      if (oy < oy_lo || oy >= oy_hi) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                     static_cast<std::ptrdiff_t>(p);
          out_row[ox] = detail::conv_cell_guarded(in, w_oc, b,
                                                  spec.in_channels, h, w, k,
                                                  iy0, ix0);
        }
        continue;
      }
      for (std::size_t ox = 0; ox < ox_lo; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                   static_cast<std::ptrdiff_t>(p);
        out_row[ox] = detail::conv_cell_guarded(in, w_oc, b, spec.in_channels,
                                                h, w, k, iy0, ix0);
      }
      const float* in_y = in + static_cast<std::size_t>(iy0) * w;
      conv3x1_interior_span(in_y, w_oc, b, spec.in_channels, in_plane, w, p,
                            ox_lo, ox_hi, out_row);
      for (std::size_t ox = ox_hi; ox < ow; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                   static_cast<std::ptrdiff_t>(p);
        out_row[ox] = detail::conv_cell_guarded(in, w_oc, b, spec.in_channels,
                                                h, w, k, iy0, ix0);
      }
    }
  }
}

// ---- lane per output channel: every other shape -----------------------------

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
  if (spec.kernel == 3 && spec.stride == 1) {
    conv_rows_cell_lanes(input, weight, bias, spec, row_begin, row_end, out);
  } else {
    conv_rows_oc_lanes(input, weight, bias, spec, row_begin, row_end, out);
  }
}

}  // namespace eco::tensor
