// Non-maximum suppression over detections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/box.hpp"

namespace eco::detect {

/// Greedy NMS: sorts by score descending, suppresses boxes with
/// IoU > `iou_threshold` against an already-kept box. Class-agnostic when
/// `class_aware` is false (used by the RPN); per-class otherwise (used on
/// final detections).
[[nodiscard]] std::vector<Detection> nms(std::vector<Detection> detections,
                                         float iou_threshold,
                                         bool class_aware = true);

/// nms() operating on the caller's vector (kept detections compact to the
/// front, vector resized) so hot paths reuse one buffer across calls
/// instead of allocating per invocation. The class-agnostic suppression
/// sweep is vectorized on SSE2 builds — each lane evaluates the exact
/// scalar iou() chain, so which boxes survive is bit-for-bit the scalar
/// greedy result (pinned by tests against a scalar replay).
void nms_in_place(std::vector<Detection>& detections, float iou_threshold,
                  bool class_aware = true);

/// Class-agnostic greedy suppression over boxes visited in a caller-given
/// order, with nms_in_place's class-agnostic verdicts (the same sweep):
/// visits boxes[order[i] & 0xFFFFFFFF] for i = 0, 1, ..., keeps a box
/// unless it overlaps a kept one with IoU > `iou_threshold`, moves the kept
/// entries of `order` to its front and stops once `max_kept` are kept.
/// Returns the kept count. The RPN's proposal finish runs on it.
[[nodiscard]] std::size_t suppress_in_order(const Box* boxes,
                                            std::uint64_t* order,
                                            std::size_t count,
                                            float iou_threshold,
                                            std::size_t max_kept);

/// Drops detections with score below `min_score`.
[[nodiscard]] std::vector<Detection> filter_by_score(
    std::vector<Detection> detections, float min_score);

/// Keeps at most the `top_k` highest-scoring detections.
[[nodiscard]] std::vector<Detection> keep_top_k(
    std::vector<Detection> detections, std::size_t top_k);

/// keep_top_k() operating on the caller's vector.
void keep_top_k_in_place(std::vector<Detection>& detections,
                         std::size_t top_k);

}  // namespace eco::detect
