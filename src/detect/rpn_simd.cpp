// Vectorized detect-side kernels (Backend::kSimd): the 3×3 box blur, the
// integral image's row-add pass, and the RPN anchor-contrast sweep.
//
// Same contract as tensor/ops_simd.cpp: lane-per-cell (or lane-per-anchor)
// vectorization where every lane executes the scalar kernel's exact IEEE
// operation chain in the same order, so outputs are bitwise equal to the
// reference backend. This translation unit is compiled with
// -ffp-contract=off so no FMA contraction can perturb a chain.
//
// ISA widening: the TU is built for the baseline target (SSE2 on x86-64),
// with AVX2 variants compiled via function-level target attributes and
// selected at runtime through tensor::cpu_has_avx2(). Widening lanes never
// changes a result — every lane still runs the same exact chain — so the
// dispatch is invisible to the determinism contract.
#include <cstddef>
#include <cstdint>

#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "tensor/backend.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

// AVX2 function variants are compiled on any x86-64 GNU-compatible
// toolchain (the target attribute lifts the baseline per function); they
// are only *called* when the CPU reports AVX2.
#if defined(__SSE2__) && defined(__x86_64__) && defined(__GNUC__)
#define ECO_HAVE_AVX2_VARIANTS 1
#if defined(__AVX2__)
#define ECO_AVX2_TARGET
#else
#define ECO_AVX2_TARGET __attribute__((target("avx2")))
#endif
#endif

namespace eco::detect {

#if defined(ECO_HAVE_AVX2_VARIANTS)
namespace {

/// Eight interior blur cells per step — the SSE2 loop's chain at twice the
/// width. Returns the first unprocessed column.
ECO_AVX2_TARGET std::size_t blur_row_interior_avx2(const float* rm,
                                                   const float* r0,
                                                   const float* rp,
                                                   float* out_row,
                                                   std::size_t x,
                                                   std::size_t w) {
  const __m256 nine = _mm256_set1_ps(9.0f);
  for (; x + 8 < w; x += 8) {
    __m256 acc = _mm256_loadu_ps(rm + x - 1);
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(rm + x));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(rm + x + 1));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(r0 + x - 1));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(r0 + x));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(r0 + x + 1));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(rp + x - 1));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(rp + x));
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(rp + x + 1));
    _mm256_storeu_ps(out_row + x, _mm256_div_ps(acc, nine));
  }
  return x;
}

}  // namespace
#endif  // ECO_HAVE_AVX2_VARIANTS

void box_blur3_into_simd(const tensor::Tensor& grid, tensor::Tensor& out) {
  const std::size_t h = grid.size(1), w = grid.size(2);
  if (out.shape() != tensor::Shape{1, h, w}) {
    out.resize({1, h, w});
  }
  const float* g = grid.data();
  float* o = out.data();
  for (std::size_t y = 0; y < h; ++y) {
    float* out_row = o + y * w;
    const bool row_interior = y > 0 && y + 1 < h;
    if (!row_interior || w < 3) {
      for (std::size_t x = 0; x < w; ++x) {
        out_row[x] = detail::blur_cell_guarded(g, h, w, y, x);
      }
      continue;
    }
    const float* rm = g + (y - 1) * w;
    const float* r0 = rm + w;
    const float* rp = r0 + w;
    out_row[0] = detail::blur_cell_guarded(g, h, w, y, 0);
    std::size_t x = 1;
#if defined(ECO_HAVE_AVX2_VARIANTS)
    if (tensor::cpu_has_avx2()) {
      x = blur_row_interior_avx2(rm, r0, rp, out_row, x, w);
    }
#endif
#if defined(__SSE2__)
    // Four interior cells per step: lane l sums the nine taps of cell
    // x + l in the scalar kernel's tap order, then divides by nine —
    // per-lane IEEE add/div, bitwise the scalar chain.
    const __m128 nine = _mm_set1_ps(9.0f);
    for (; x + 4 < w; x += 4) {
      __m128 acc = _mm_loadu_ps(rm + x - 1);
      acc = _mm_add_ps(acc, _mm_loadu_ps(rm + x));
      acc = _mm_add_ps(acc, _mm_loadu_ps(rm + x + 1));
      acc = _mm_add_ps(acc, _mm_loadu_ps(r0 + x - 1));
      acc = _mm_add_ps(acc, _mm_loadu_ps(r0 + x));
      acc = _mm_add_ps(acc, _mm_loadu_ps(r0 + x + 1));
      acc = _mm_add_ps(acc, _mm_loadu_ps(rp + x - 1));
      acc = _mm_add_ps(acc, _mm_loadu_ps(rp + x));
      acc = _mm_add_ps(acc, _mm_loadu_ps(rp + x + 1));
      _mm_storeu_ps(out_row + x, _mm_div_ps(acc, nine));
    }
#elif defined(__ARM_NEON)
    const float32x4_t nine = vdupq_n_f32(9.0f);
    for (; x + 4 < w; x += 4) {
      float32x4_t acc = vld1q_f32(rm + x - 1);
      acc = vaddq_f32(acc, vld1q_f32(rm + x));
      acc = vaddq_f32(acc, vld1q_f32(rm + x + 1));
      acc = vaddq_f32(acc, vld1q_f32(r0 + x - 1));
      acc = vaddq_f32(acc, vld1q_f32(r0 + x));
      acc = vaddq_f32(acc, vld1q_f32(r0 + x + 1));
      acc = vaddq_f32(acc, vld1q_f32(rp + x - 1));
      acc = vaddq_f32(acc, vld1q_f32(rp + x));
      acc = vaddq_f32(acc, vld1q_f32(rp + x + 1));
      vst1q_f32(out_row + x, vdivq_f32(acc, nine));
    }
#endif
    for (; x + 1 < w; ++x) {
      float acc = 0.0f;
      acc += rm[x - 1];
      acc += rm[x];
      acc += rm[x + 1];
      acc += r0[x - 1];
      acc += r0[x];
      acc += r0[x + 1];
      acc += rp[x - 1];
      acc += rp[x];
      acc += rp[x + 1];
      out_row[x] = acc / 9.0f;
    }
    out_row[w - 1] = detail::blur_cell_guarded(g, h, w, y, w - 1);
  }
}

namespace detail {

#if defined(ECO_HAVE_AVX2_VARIANTS)
namespace {

ECO_AVX2_TARGET void integral_rows_add_avx2(double* table, std::size_t rows,
                                            std::size_t w1) {
  for (std::size_t y = 0; y < rows; ++y) {
    double* current = table + y * w1;
    const double* prev = current - w1;
    std::size_t x = 0;
    for (; x + 4 <= w1; x += 4) {
      _mm256_storeu_pd(current + x,
                       _mm256_add_pd(_mm256_loadu_pd(current + x),
                                     _mm256_loadu_pd(prev + x)));
    }
    for (; x < w1; ++x) {
      current[x] += prev[x];
    }
  }
}

}  // namespace
#endif  // ECO_HAVE_AVX2_VARIANTS

void integral_rows_add_simd(double* table, std::size_t rows,
                            std::size_t w1) {
  // Rows must accumulate top to bottom (row y needs row y-1's final
  // values); within a row the adds are independent. Column 0 is the zero
  // border on both rows, so the vector span covers the full width.
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (tensor::cpu_has_avx2()) {
    integral_rows_add_avx2(table, rows, w1);
    return;
  }
#endif
  for (std::size_t y = 0; y < rows; ++y) {
    double* current = table + y * w1;
    const double* prev = current - w1;
    std::size_t x = 0;
#if defined(__SSE2__)
    for (; x + 2 <= w1; x += 2) {
      _mm_storeu_pd(current + x, _mm_add_pd(_mm_loadu_pd(current + x),
                                            _mm_loadu_pd(prev + x)));
    }
#elif defined(__ARM_NEON)
    for (; x + 2 <= w1; x += 2) {
      vst1q_f64(current + x,
                vaddq_f64(vld1q_f64(current + x), vld1q_f64(prev + x)));
    }
#endif
    for (; x < w1; ++x) {
      current[x] += prev[x];
    }
  }
}

namespace {

/// The scalar scoring chain of one anchor — exactly propose_with_plan's
/// scalar loop (flat_sum's lookup/fold order, the validity ternaries, the
/// float→double area widenings).
inline double anchor_contrast_scalar(const double* table,
                                     const AnchorGeometry& g) {
  const double inner_sum =
      g.inner_valid ? table[g.inner11] - table[g.inner01] -
                          table[g.inner10] + table[g.inner00]
                    : 0.0;
  const double ring_sum =
      g.ring_valid ? table[g.ring11] - table[g.ring01] - table[g.ring10] +
                         table[g.ring00]
                   : 0.0;
  const double inside = g.inner_area > 0.0f ? inner_sum / g.inner_area : 0.0;
  const double ring_area = g.ring_area;
  const double background =
      ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
  return inside - background;
}

}  // namespace

#if defined(ECO_HAVE_AVX2_VARIANTS)
namespace {

/// Four anchors per step (4-lane doubles) — the SSE2 pair loop's chain at
/// twice the width. Any quad containing an invalid anchor takes the scalar
/// fallback for all four (invalid anchors exist only in degenerate
/// configs, so the branch is effectively never taken).
ECO_AVX2_TARGET void anchor_contrast_pass_avx2(const double* table,
                                               const AnchorGeometry* geometry,
                                               std::size_t count,
                                               double* contrast_out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const AnchorGeometry& a = geometry[i];
    const AnchorGeometry& b = geometry[i + 1];
    const AnchorGeometry& c = geometry[i + 2];
    const AnchorGeometry& d = geometry[i + 3];
    if (!(a.inner_valid && a.ring_valid && b.inner_valid && b.ring_valid &&
          c.inner_valid && c.ring_valid && d.inner_valid && d.ring_valid &&
          a.inner_area > 0.0f && b.inner_area > 0.0f &&
          c.inner_area > 0.0f && d.inner_area > 0.0f &&
          a.ring_area > 0.0f && b.ring_area > 0.0f &&
          c.ring_area > 0.0f && d.ring_area > 0.0f)) {
      contrast_out[i] = anchor_contrast_scalar(table, a);
      contrast_out[i + 1] = anchor_contrast_scalar(table, b);
      contrast_out[i + 2] = anchor_contrast_scalar(table, c);
      contrast_out[i + 3] = anchor_contrast_scalar(table, d);
      continue;
    }
    // flat_sum's fold order: ((T11 - T01) - T10) + T00, per lane.
    const __m256d in11 = _mm256_set_pd(table[d.inner11], table[c.inner11],
                                       table[b.inner11], table[a.inner11]);
    const __m256d in01 = _mm256_set_pd(table[d.inner01], table[c.inner01],
                                       table[b.inner01], table[a.inner01]);
    const __m256d in10 = _mm256_set_pd(table[d.inner10], table[c.inner10],
                                       table[b.inner10], table[a.inner10]);
    const __m256d in00 = _mm256_set_pd(table[d.inner00], table[c.inner00],
                                       table[b.inner00], table[a.inner00]);
    const __m256d inner_sum = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(in11, in01), in10), in00);
    const __m256d rg11 = _mm256_set_pd(table[d.ring11], table[c.ring11],
                                       table[b.ring11], table[a.ring11]);
    const __m256d rg01 = _mm256_set_pd(table[d.ring01], table[c.ring01],
                                       table[b.ring01], table[a.ring01]);
    const __m256d rg10 = _mm256_set_pd(table[d.ring10], table[c.ring10],
                                       table[b.ring10], table[a.ring10]);
    const __m256d rg00 = _mm256_set_pd(table[d.ring00], table[c.ring00],
                                       table[b.ring00], table[a.ring00]);
    const __m256d ring_sum = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(rg11, rg01), rg10), rg00);
    const __m256d inner_area = _mm256_set_pd(
        static_cast<double>(d.inner_area), static_cast<double>(c.inner_area),
        static_cast<double>(b.inner_area), static_cast<double>(a.inner_area));
    const __m256d ring_area = _mm256_set_pd(
        static_cast<double>(d.ring_area), static_cast<double>(c.ring_area),
        static_cast<double>(b.ring_area), static_cast<double>(a.ring_area));
    const __m256d inside = _mm256_div_pd(inner_sum, inner_area);
    const __m256d background =
        _mm256_div_pd(_mm256_sub_pd(ring_sum, inner_sum), ring_area);
    _mm256_storeu_pd(contrast_out + i, _mm256_sub_pd(inside, background));
  }
  for (; i < count; ++i) {
    contrast_out[i] = anchor_contrast_scalar(table, geometry[i]);
  }
}

/// Four contrasts per step: `_CMP_GE_OQ` is exactly the scalar predicate
/// `contrast >= threshold` (ordered — NaN fails, as it does the scalar
/// `>=`). Survivor masks are almost always zero, so the sweep is a
/// compare + movemask per quad.
ECO_AVX2_TARGET void collect_candidates_avx2(const double* contrast,
                                             std::size_t count,
                                             double threshold,
                                             std::vector<std::uint32_t>& out) {
  const __m256d thr = _mm256_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d c = _mm256_loadu_pd(contrast + i);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(c, thr, _CMP_GE_OQ));
    if (mask == 0) continue;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        out.push_back(static_cast<std::uint32_t>(i) +
                      static_cast<std::uint32_t>(lane));
      }
    }
  }
  for (; i < count; ++i) {
    if (contrast[i] >= threshold) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace
#endif  // ECO_HAVE_AVX2_VARIANTS

void collect_candidates_simd(const double* contrast, std::size_t count,
                             double threshold,
                             std::vector<std::uint32_t>& out) {
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (tensor::cpu_has_avx2()) {
    collect_candidates_avx2(contrast, count, threshold, out);
    return;
  }
#endif
  std::size_t i = 0;
#if defined(__SSE2__)
  // Two contrasts per step; cmpge is exactly the scalar `c >= thr`
  // predicate (a NaN contrast fails both). NEON builds take the scalar loop.
  const __m128d thr = _mm_set1_pd(threshold);
  for (; i + 2 <= count; i += 2) {
    const int mask =
        _mm_movemask_pd(_mm_cmpge_pd(_mm_loadu_pd(contrast + i), thr));
    if (mask == 0) continue;
    if (mask & 1) out.push_back(static_cast<std::uint32_t>(i));
    if (mask & 2) out.push_back(static_cast<std::uint32_t>(i + 1));
  }
#endif
  for (; i < count; ++i) {
    if (contrast[i] >= threshold) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

void anchor_contrast_pass_simd(const double* table,
                               const AnchorGeometry* geometry,
                               std::size_t count, double* contrast_out) {
  std::size_t i = 0;
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (tensor::cpu_has_avx2()) {
    anchor_contrast_pass_avx2(table, geometry, count, contrast_out);
    return;
  }
#endif
#if defined(__SSE2__)
  // Two anchors per step (2-lane doubles). The divides dominate the
  // scalar pass; one div_pd retires both lanes' divisions in the latency
  // of one scalar divide. Anchors with clamped-away boxes (rare: only
  // degenerate configs produce them) fall back to the scalar chain so the
  // vector path never needs the validity ternaries.
  for (; i + 2 <= count; i += 2) {
    const AnchorGeometry& a = geometry[i];
    const AnchorGeometry& b = geometry[i + 1];
    if (!(a.inner_valid && a.ring_valid && b.inner_valid && b.ring_valid &&
          a.inner_area > 0.0f && b.inner_area > 0.0f &&
          a.ring_area > 0.0f && b.ring_area > 0.0f)) {
      contrast_out[i] = anchor_contrast_scalar(table, a);
      contrast_out[i + 1] = anchor_contrast_scalar(table, b);
      continue;
    }
    // flat_sum's fold order: ((T11 - T01) - T10) + T00, per lane.
    const __m128d in11 = _mm_set_pd(table[b.inner11], table[a.inner11]);
    const __m128d in01 = _mm_set_pd(table[b.inner01], table[a.inner01]);
    const __m128d in10 = _mm_set_pd(table[b.inner10], table[a.inner10]);
    const __m128d in00 = _mm_set_pd(table[b.inner00], table[a.inner00]);
    const __m128d inner_sum = _mm_add_pd(
        _mm_sub_pd(_mm_sub_pd(in11, in01), in10), in00);
    const __m128d rg11 = _mm_set_pd(table[b.ring11], table[a.ring11]);
    const __m128d rg01 = _mm_set_pd(table[b.ring01], table[a.ring01]);
    const __m128d rg10 = _mm_set_pd(table[b.ring10], table[a.ring10]);
    const __m128d rg00 = _mm_set_pd(table[b.ring00], table[a.ring00]);
    const __m128d ring_sum = _mm_add_pd(
        _mm_sub_pd(_mm_sub_pd(rg11, rg01), rg10), rg00);
    const __m128d inner_area =
        _mm_set_pd(static_cast<double>(b.inner_area),
                   static_cast<double>(a.inner_area));
    const __m128d ring_area = _mm_set_pd(static_cast<double>(b.ring_area),
                                         static_cast<double>(a.ring_area));
    const __m128d inside = _mm_div_pd(inner_sum, inner_area);
    const __m128d background =
        _mm_div_pd(_mm_sub_pd(ring_sum, inner_sum), ring_area);
    _mm_storeu_pd(contrast_out + i, _mm_sub_pd(inside, background));
  }
#elif defined(__ARM_NEON) && defined(__aarch64__)
  for (; i + 2 <= count; i += 2) {
    const AnchorGeometry& a = geometry[i];
    const AnchorGeometry& b = geometry[i + 1];
    if (!(a.inner_valid && a.ring_valid && b.inner_valid && b.ring_valid &&
          a.inner_area > 0.0f && b.inner_area > 0.0f &&
          a.ring_area > 0.0f && b.ring_area > 0.0f)) {
      contrast_out[i] = anchor_contrast_scalar(table, a);
      contrast_out[i + 1] = anchor_contrast_scalar(table, b);
      continue;
    }
    const float64x2_t in11 = {table[a.inner11], table[b.inner11]};
    const float64x2_t in01 = {table[a.inner01], table[b.inner01]};
    const float64x2_t in10 = {table[a.inner10], table[b.inner10]};
    const float64x2_t in00 = {table[a.inner00], table[b.inner00]};
    const float64x2_t inner_sum =
        vaddq_f64(vsubq_f64(vsubq_f64(in11, in01), in10), in00);
    const float64x2_t rg11 = {table[a.ring11], table[b.ring11]};
    const float64x2_t rg01 = {table[a.ring01], table[b.ring01]};
    const float64x2_t rg10 = {table[a.ring10], table[b.ring10]};
    const float64x2_t rg00 = {table[a.ring00], table[b.ring00]};
    const float64x2_t ring_sum =
        vaddq_f64(vsubq_f64(vsubq_f64(rg11, rg01), rg10), rg00);
    const float64x2_t inner_area = {static_cast<double>(a.inner_area),
                                    static_cast<double>(b.inner_area)};
    const float64x2_t ring_area = {static_cast<double>(a.ring_area),
                                   static_cast<double>(b.ring_area)};
    const float64x2_t inside = vdivq_f64(inner_sum, inner_area);
    const float64x2_t background =
        vdivq_f64(vsubq_f64(ring_sum, inner_sum), ring_area);
    vst1q_f64(contrast_out + i, vsubq_f64(inside, background));
  }
#endif
  for (; i < count; ++i) {
    contrast_out[i] = anchor_contrast_scalar(table, geometry[i]);
  }
}

}  // namespace detail

}  // namespace eco::detect
