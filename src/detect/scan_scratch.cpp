#include "detect/scan_scratch.hpp"

#include <algorithm>

#include "tensor/plan_cache.hpp"

namespace eco::detect {

ScanPlan build_scan_plan(const ScanPlanKey& key) {
  ScanPlan plan;
  plan.anchors = generate_anchors(key.height, key.width, key.config.anchors);
  // Replicates exactly what the per-scan path computes from each anchor:
  // the clipped inner box and padded ring, their areas, and the integral
  // table's clamped corner offsets (IntegralImage::box_sum's clamp + cast,
  // with the table stride w + 1).
  const auto limit_w = static_cast<float>(key.width);
  const auto limit_h = static_cast<float>(key.height);
  const std::size_t w1 = key.width + 1;
  const auto clamp_x = [&](float v) {
    return static_cast<std::size_t>(std::clamp(v, 0.0f, limit_w));
  };
  const auto clamp_y = [&](float v) {
    return static_cast<std::size_t>(std::clamp(v, 0.0f, limit_h));
  };
  plan.geometry.reserve(plan.anchors.size());
  for (const Box& anchor : plan.anchors) {
    AnchorGeometry g;
    const Box inner = anchor.clipped(limit_w, limit_h);
    g.inner_area = inner.area();
    {
      const std::size_t x1 = clamp_x(inner.x1), x2 = clamp_x(inner.x2);
      const std::size_t y1 = clamp_y(inner.y1), y2 = clamp_y(inner.y2);
      g.inner_valid = x2 > x1 && y2 > y1;
      g.inner00 = y1 * w1 + x1;
      g.inner01 = y1 * w1 + x2;
      g.inner10 = y2 * w1 + x1;
      g.inner11 = y2 * w1 + x2;
    }
    Box ring = anchor;
    ring.x1 -= key.config.ring;
    ring.y1 -= key.config.ring;
    ring.x2 += key.config.ring;
    ring.y2 += key.config.ring;
    ring = ring.clipped(limit_w, limit_h);
    g.ring_area = ring.area() - g.inner_area;
    {
      const std::size_t x1 = clamp_x(ring.x1), x2 = clamp_x(ring.x2);
      const std::size_t y1 = clamp_y(ring.y1), y2 = clamp_y(ring.y2);
      g.ring_valid = x2 > x1 && y2 > y1;
      g.ring00 = y1 * w1 + x1;
      g.ring01 = y1 * w1 + x2;
      g.ring10 = y2 * w1 + x1;
      g.ring11 = y2 * w1 + x2;
    }
    plan.geometry.push_back(g);
  }
  return plan;
}

namespace {

using ScanPlanCache = tensor::PlanCache<ScanPlanKey, ScanPlan>;

ScanPlanCache& scan_plan_cache() {
  static ScanPlanCache cache(32);
  return cache;
}

}  // namespace

ScanPlanCacheStats scan_plan_cache_stats() {
  const tensor::PlanCacheTotals totals = scan_plan_cache().totals();
  return ScanPlanCacheStats{totals.hits, totals.misses, totals.plans};
}

const ScanPlan& ScanScratch::plan_for(std::size_t grid_height,
                                      std::size_t grid_width,
                                      const RpnConfig& config) {
  if (!plan_valid_ || grid_height != plan_height_ ||
      grid_width != plan_width_ || !(config == plan_config_)) {
    plan_ = scan_plan_cache().get_or_build(
        ScanPlanKey{grid_height, grid_width, config}, build_scan_plan);
    plan_height_ = grid_height;
    plan_width_ = grid_width;
    plan_config_ = config;
    plan_valid_ = true;
  }
  return *plan_;
}

std::size_t ScanScratch::capacity_bytes() const noexcept {
  return smoothed.vec().capacity() * sizeof(float) +
         integral.capacity_bytes() + contrast.capacity() * sizeof(double) +
         candidates.capacity() * sizeof(std::uint32_t) +
         ranked.capacity() * sizeof(std::uint64_t) +
         values.capacity() * sizeof(float) + region_integral.capacity_bytes() +
         mask.capacity() * sizeof(std::uint8_t) +
         visited.capacity() * sizeof(std::uint8_t) +
         stack.capacity() * sizeof(std::size_t) +
         regions.capacity() * sizeof(Region);
}

}  // namespace eco::detect
