// Reusable per-scan buffers for the RPN + ROI-head channel scan.
//
// A channel scan makes a fixed family of intermediate allocations: the
// smoothed grid and its integral image, the per-anchor contrasts, the
// surviving anchor indices and their sort keys (RPN), the percentile
// staging buffer, the component-analysis mask/visited/stack buffers and the
// region list, and the amplitude integral image (ROI head). Every backend
// stages through the same buffers, so the footprint is backend-invariant.
// Before this struct existed each scan allocated them afresh; a ScanScratch
// owns them all, and the exec layer keeps one per pipeline slot inside a
// FrameArena so they persist across scans AND frames — a steady-state frame
// scans every channel without touching the heap.
//
// Threading scratch through is purely an allocation optimization: every
// consumer runs the identical arithmetic over the reused buffers, so results
// are bitwise identical with or without scratch (pinned by conv_kernel_test's
// AnchorGeometryTest.ScratchProposalsMatchScratchless and exec_test's
// ChannelScanTest.ScanThenMergeMatchesDetect).
//
// Single-threaded state: one scratch per (frame slot, task).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "detect/anchors.hpp"
#include "detect/box.hpp"
#include "detect/roi_head.hpp"
#include "detect/rpn.hpp"
#include "tensor/tensor.hpp"

namespace eco::detect {

/// Precomputed scoring geometry of one anchor: the clamped integral-table
/// offsets and areas of its inner box and background ring. These depend
/// only on (anchor, grid extent, RpnConfig), never on grid *values*, so the
/// RPN's inner loop reduces to eight table lookups and a handful of
/// floating-point ops per anchor — producing the identical numbers the
/// clip/clamp path computes per scan.
struct AnchorGeometry {
  std::size_t inner00 = 0, inner01 = 0, inner10 = 0, inner11 = 0;
  std::size_t ring00 = 0, ring01 = 0, ring10 = 0, ring11 = 0;
  float inner_area = 0.0f;
  float ring_area = 0.0f;  // ring.area() - inner_area, as the float the
                           // scoring formula widens to double
  bool inner_valid = false;  // inner has positive-extent clamped coords
  bool ring_valid = false;
};

/// Key of one scan plan: grid extent + the full RPN configuration (which
/// includes the anchor config and the kernel backend). Exact equality —
/// two keys compare equal only when a fresh build would produce the
/// identical plan.
struct ScanPlanKey {
  std::size_t height = 0;
  std::size_t width = 0;
  RpnConfig config;

  friend bool operator==(const ScanPlanKey&, const ScanPlanKey&) = default;
};

/// Immutable anchor grid + aligned scoring geometry for one ScanPlanKey.
/// Built once in the process-wide plan cache (tensor::PlanCache) and shared
/// across every scratch/shard/worker via shared_ptr — N shards no longer
/// rebuild or retain N identical copies. The values are exactly what the
/// old per-scratch memo (generate_anchors + the clip/clamp geometry walk)
/// produced.
struct ScanPlan {
  std::vector<Box> anchors;
  std::vector<AnchorGeometry> geometry;
};

/// Builds the plan for `key` from scratch — generate_anchors plus the
/// per-anchor clipped-box/ring geometry (IntegralImage::box_sum's clamp +
/// cast, table stride width + 1).
[[nodiscard]] ScanPlan build_scan_plan(const ScanPlanKey& key);

/// Counters of the process-wide scan-plan cache (totals since process
/// start; `plans` is the resident plan count). The hit/miss *split* across
/// threads is scheduling-dependent, so these feed the bench's sharing
/// proof, never bitwise report comparisons.
struct ScanPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t plans = 0;
};
[[nodiscard]] ScanPlanCacheStats scan_plan_cache_stats();

struct ScanScratch {
  // ---- RPN stage ------------------------------------------------------
  tensor::Tensor smoothed;  // box_blur3 output
  IntegralImage integral;   // cumulative table over the smoothed grid
  std::vector<double> contrast;            // scoring pass-1 output
  std::vector<std::uint32_t> candidates;   // indices passing the threshold
  std::vector<std::uint64_t> ranked;       // (~score bits, anchor) NMS keys

  // ---- ROI-head stage -------------------------------------------------
  std::vector<float> values;        // p95 staging: the rank's bucket or a copy
  IntegralImage region_integral;    // amplitude lookups inside regions
  std::vector<std::uint8_t> mask;     // threshold mask
  std::vector<std::uint8_t> visited;  // flood-fill bookkeeping
  std::vector<std::size_t> stack;     // flood-fill stack
  std::vector<Region> regions;        // component output

  /// The shared scan plan for (extent, config): consults the process-wide
  /// plan cache on the first call per key, then returns the pinned
  /// shared_ptr with no locking until the key changes. Values are exactly
  /// what a fresh generate_anchors + geometry build returns.
  [[nodiscard]] const ScanPlan& plan_for(std::size_t grid_height,
                                         std::size_t grid_width,
                                         const RpnConfig& config);

  /// Bytes of buffer capacity this scratch retains (arena accounting).
  /// Shared plans are excluded — the process-wide cache owns them.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  std::shared_ptr<const ScanPlan> plan_;  // pinned last-used plan
  std::size_t plan_height_ = 0;
  std::size_t plan_width_ = 0;
  RpnConfig plan_config_;
  bool plan_valid_ = false;
};

}  // namespace eco::detect
