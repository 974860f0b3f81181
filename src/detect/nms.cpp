#include "detect/nms.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/backend.hpp"

// Runtime-dispatched AVX2 variant of the suppression sweep: the translation
// unit stays baseline SSE2, the AVX2 function carries a target attribute and
// only runs after tensor::cpu_has_avx2() says the instructions exist. Wider
// lanes never change a verdict — each lane still runs the exact iou() chain.
#if defined(__SSE2__) && defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define ECO_NMS_HAVE_AVX2 1
#if defined(__AVX2__)
#define ECO_NMS_AVX2_TARGET
#else
#define ECO_NMS_AVX2_TARGET __attribute__((target("avx2")))
#endif
#endif

namespace eco::detect {

namespace {

/// Stable score-descending sort via an index sort. Keys are (score desc,
/// original index asc) — for the real-valued scores NMS sees this is
/// exactly std::stable_sort's order — but sorting 8-byte pairs avoids
/// moving Detection payloads through a merge and its per-call temporary
/// buffer. Thread-local staging reuses capacity across calls; the result
/// is copied back with assign() so the caller's vector keeps its own
/// capacity trajectory (a swap would make retained capacity depend on
/// which thread ran which scan, and that shows up in arena accounting).
void sort_by_score_descending(std::vector<Detection>& detections) {
  thread_local std::vector<std::pair<float, std::uint32_t>> order;
  thread_local std::vector<Detection> sorted;
  order.clear();
  order.reserve(detections.size());
  for (std::size_t i = 0; i < detections.size(); ++i) {
    order.emplace_back(detections[i].score, static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<float, std::uint32_t>& a,
               const std::pair<float, std::uint32_t>& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  sorted.clear();
  sorted.reserve(detections.size());
  for (const auto& [score, index] : order) {
    sorted.push_back(detections[index]);
  }
  detections.assign(sorted.begin(), sorted.end());
}

#if defined(__SSE2__)

/// SoA mirror of the kept boxes for the vectorized suppression sweep.
/// Thread-local so repeated NMS calls reuse the capacity without locking
/// (NMS runs inside per-worker scan tasks).
struct KeptSoA {
  std::vector<float> x1, y1, x2, y2, area;

  void clear() {
    x1.clear();
    y1.clear();
    x2.clear();
    y2.clear();
    area.clear();
  }

  void push(const Box& box) {
    x1.push_back(box.x1);
    y1.push_back(box.y1);
    x2.push_back(box.x2);
    y2.push_back(box.y2);
    area.push_back(box.area());
  }
};

#if defined(ECO_NMS_HAVE_AVX2)

/// Eight-keeper-wide twin of suppressed_by_any below: the identical masked
/// iou() chain per lane, so every lane's verdict equals the scalar call's
/// and the any-of result is lane-width-independent.
ECO_NMS_AVX2_TARGET bool suppressed_by_any_avx2(const KeptSoA& kept,
                                                std::size_t count,
                                                const Box& candidate,
                                                float candidate_area,
                                                float iou_threshold) {
  const __m256 cx1 = _mm256_set1_ps(candidate.x1);
  const __m256 cy1 = _mm256_set1_ps(candidate.y1);
  const __m256 cx2 = _mm256_set1_ps(candidate.x2);
  const __m256 cy2 = _mm256_set1_ps(candidate.y2);
  const __m256 carea = _mm256_set1_ps(candidate_area);
  const __m256 thr = _mm256_set1_ps(iou_threshold);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256 iw =
        _mm256_sub_ps(_mm256_min_ps(_mm256_loadu_ps(kept.x2.data() + j), cx2),
                      _mm256_max_ps(_mm256_loadu_ps(kept.x1.data() + j), cx1));
    const __m256 ih =
        _mm256_sub_ps(_mm256_min_ps(_mm256_loadu_ps(kept.y2.data() + j), cy2),
                      _mm256_max_ps(_mm256_loadu_ps(kept.y1.data() + j), cy1));
    const __m256 overlap = _mm256_and_ps(_mm256_cmp_ps(iw, zero, _CMP_GT_OQ),
                                         _mm256_cmp_ps(ih, zero, _CMP_GT_OQ));
    const __m256 inter = _mm256_and_ps(_mm256_mul_ps(iw, ih), overlap);
    const __m256 uni = _mm256_sub_ps(
        _mm256_add_ps(_mm256_loadu_ps(kept.area.data() + j), carea), inter);
    const __m256 sup =
        _mm256_and_ps(_mm256_and_ps(_mm256_cmp_ps(inter, zero, _CMP_GT_OQ),
                                    _mm256_cmp_ps(uni, zero, _CMP_GT_OQ)),
                      _mm256_cmp_ps(_mm256_div_ps(inter, uni), thr,
                                    _CMP_GT_OQ));
    if (_mm256_movemask_ps(sup) != 0) return true;
  }
  for (; j < count; ++j) {
    const Box keeper{kept.x1[j], kept.y1[j], kept.x2[j], kept.y2[j]};
    if (iou(keeper, candidate) > iou_threshold) return true;
  }
  return false;
}

#endif  // ECO_NMS_HAVE_AVX2

/// True when `candidate` overlaps any of the `count` kept boxes with
/// IoU > threshold. Four keepers per step; each lane computes the exact
/// iou() chain (max/min/sub/mul/add/div are all exactly-rounded IEEE ops,
/// applied in the scalar order), then compares against the threshold, so
/// every lane's verdict equals the scalar call's. Junk intersection
/// products from disjoint boxes are masked to zero first, exactly like
/// intersection_area's (w > 0 && h > 0) guard, and a zero/negative union
/// lane is masked like iou's uni > 0 guard, so a stray inf/NaN from the
/// unmasked divide can never flip a verdict.
bool suppressed_by_any(const KeptSoA& kept, std::size_t count,
                       const Box& candidate, float candidate_area,
                       float iou_threshold) {
#if defined(ECO_NMS_HAVE_AVX2)
  if (tensor::cpu_has_avx2()) {
    return suppressed_by_any_avx2(kept, count, candidate, candidate_area,
                                  iou_threshold);
  }
#endif
  const __m128 cx1 = _mm_set1_ps(candidate.x1);
  const __m128 cy1 = _mm_set1_ps(candidate.y1);
  const __m128 cx2 = _mm_set1_ps(candidate.x2);
  const __m128 cy2 = _mm_set1_ps(candidate.y2);
  const __m128 carea = _mm_set1_ps(candidate_area);
  const __m128 thr = _mm_set1_ps(iou_threshold);
  const __m128 zero = _mm_setzero_ps();
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m128 iw =
        _mm_sub_ps(_mm_min_ps(_mm_loadu_ps(kept.x2.data() + j), cx2),
                   _mm_max_ps(_mm_loadu_ps(kept.x1.data() + j), cx1));
    const __m128 ih =
        _mm_sub_ps(_mm_min_ps(_mm_loadu_ps(kept.y2.data() + j), cy2),
                   _mm_max_ps(_mm_loadu_ps(kept.y1.data() + j), cy1));
    const __m128 overlap =
        _mm_and_ps(_mm_cmpgt_ps(iw, zero), _mm_cmpgt_ps(ih, zero));
    const __m128 inter = _mm_and_ps(_mm_mul_ps(iw, ih), overlap);
    const __m128 uni = _mm_sub_ps(
        _mm_add_ps(_mm_loadu_ps(kept.area.data() + j), carea), inter);
    const __m128 sup = _mm_and_ps(
        _mm_and_ps(_mm_cmpgt_ps(inter, zero), _mm_cmpgt_ps(uni, zero)),
        _mm_cmpgt_ps(_mm_div_ps(inter, uni), thr));
    if (_mm_movemask_ps(sup) != 0) return true;
  }
  for (; j < count; ++j) {
    const Box keeper{kept.x1[j], kept.y1[j], kept.x2[j], kept.y2[j]};
    if (iou(keeper, candidate) > iou_threshold) return true;
  }
  return false;
}

/// Class-agnostic greedy suppression over score-sorted detections,
/// compacting kept entries to the front.
void suppress_class_agnostic(std::vector<Detection>& detections,
                             float iou_threshold) {
  thread_local KeptSoA kept;
  kept.clear();
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const Box& box = detections[i].box;
    if (suppressed_by_any(kept, kept_count, box, box.area(), iou_threshold)) {
      continue;
    }
    kept.push(box);
    if (kept_count != i) detections[kept_count] = std::move(detections[i]);
    ++kept_count;
  }
  detections.resize(kept_count);
}

#else  // !__SSE2__

void suppress_class_agnostic(std::vector<Detection>& detections,
                             float iou_threshold) {
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    bool suppressed = false;
    for (std::size_t j = 0; j < kept_count; ++j) {
      if (iou(detections[j].box, detections[i].box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;
    if (kept_count != i) detections[kept_count] = std::move(detections[i]);
    ++kept_count;
  }
  detections.resize(kept_count);
}

#endif  // __SSE2__

}  // namespace

std::size_t suppress_in_order(const Box* boxes, std::uint64_t* order,
                              std::size_t count, float iou_threshold,
                              std::size_t max_kept) {
#if defined(__SSE2__)
  thread_local KeptSoA kept;
  kept.clear();
#endif
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < count && kept_count < max_kept; ++i) {
    const Box& box = boxes[static_cast<std::uint32_t>(order[i])];
#if defined(__SSE2__)
    if (suppressed_by_any(kept, kept_count, box, box.area(), iou_threshold)) {
      continue;
    }
    kept.push(box);
#else
    bool suppressed = false;
    for (std::size_t j = 0; j < kept_count && !suppressed; ++j) {
      suppressed = iou(boxes[static_cast<std::uint32_t>(order[j])], box) >
                   iou_threshold;
    }
    if (suppressed) continue;
#endif
    order[kept_count++] = order[i];
  }
  return kept_count;
}

void nms_in_place(std::vector<Detection>& detections, float iou_threshold,
                  bool class_aware) {
  sort_by_score_descending(detections);
  if (!class_aware) {
    suppress_class_agnostic(detections, iou_threshold);
    return;
  }
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    bool suppressed = false;
    for (std::size_t j = 0; j < kept_count; ++j) {
      if (detections[j].cls != detections[i].cls) continue;
      if (iou(detections[j].box, detections[i].box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;
    if (kept_count != i) detections[kept_count] = std::move(detections[i]);
    ++kept_count;
  }
  detections.resize(kept_count);
}

std::vector<Detection> nms(std::vector<Detection> detections,
                           float iou_threshold, bool class_aware) {
  nms_in_place(detections, iou_threshold, class_aware);
  return detections;
}

std::vector<Detection> filter_by_score(std::vector<Detection> detections,
                                       float min_score) {
  std::erase_if(detections, [min_score](const Detection& d) {
    return d.score < min_score;
  });
  return detections;
}

void keep_top_k_in_place(std::vector<Detection>& detections,
                         std::size_t top_k) {
  if (detections.size() <= top_k) return;
  std::partial_sort(detections.begin(),
                    detections.begin() + static_cast<std::ptrdiff_t>(top_k),
                    detections.end(),
                    [](const Detection& a, const Detection& b) {
                      return a.score > b.score;
                    });
  detections.resize(top_k);
}

std::vector<Detection> keep_top_k(std::vector<Detection> detections,
                                  std::size_t top_k) {
  keep_top_k_in_place(detections, top_k);
  return detections;
}

}  // namespace eco::detect
