#include "detect/roi_head.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "detect/nms.hpp"
#include "detect/scan_scratch.hpp"

namespace eco::detect {

RoiHead::RoiHead(RoiHeadConfig config, std::vector<ClassPrototype> prototypes)
    : config_(config), prototypes_(std::move(prototypes)) {}

std::optional<SignalLevels> signal_levels(const float* values, std::size_t n,
                                          std::vector<float>& buffer) {
  const std::size_t rank = (n * 95) / 100;
  // Bucket = the top 11 bits of the value's pattern. With the sign bit
  // clear, +0 … +Inf map to buckets 0 … 0x7F8 in value order; the mask
  // only keeps a signed pattern's (unused) bucket in range.
  constexpr unsigned kBucketShift = 20;
  std::uint32_t histogram[1u << 11] = {};
  std::uint32_t max_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(values[i]);
    ++histogram[(bits >> kBucketShift) & 0x7FFu];
    max_bits = std::max(max_bits, bits);
  }
  if (max_bits > 0x7F800000u) {
    // A NaN, a negative value or -0: bit order is not value order.
    const auto is_nan = [](float v) { return std::isnan(v); };
    if (std::any_of(values, values + n, is_nan)) return std::nullopt;
    buffer.assign(values, values + n);
    const auto nth = buffer.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(buffer.begin(), nth, buffer.end());
    return SignalLevels{*nth, *std::max_element(nth, buffer.end())};
  }
  std::size_t below = 0;
  std::uint32_t bucket = 0;
  while (below + histogram[bucket] <= rank) below += histogram[bucket++];
  // Branch-free compaction of the rank's bucket (at most n values).
  buffer.resize(n);
  float* staged = buffer.data();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    staged[count] = values[i];
    count += static_cast<std::size_t>(
        (std::bit_cast<std::uint32_t>(values[i]) >> kBucketShift) == bucket);
  }
  float* nth = staged + (rank - below);
  std::nth_element(staged, nth, staged + count);
  return SignalLevels{*nth, std::bit_cast<float>(max_bits)};
}

std::vector<Region> extract_regions(const tensor::Tensor& grid,
                                    float threshold, std::size_t min_area) {
  ScanScratch local;
  return extract_regions(grid, threshold, min_area, local);
}

const std::vector<Region>& extract_regions(const tensor::Tensor& grid,
                                           float threshold,
                                           std::size_t min_area,
                                           ScanScratch& scratch) {
  const std::size_t h = grid.size(1), w = grid.size(2);
  std::vector<std::uint8_t>& mask = scratch.mask;
  mask.assign(h * w, 0);
  for (std::size_t i = 0; i < h * w; ++i) {
    mask[i] = grid.data()[i] >= threshold;
  }

  std::vector<Region>& regions = scratch.regions;
  regions.clear();
  std::vector<std::uint8_t>& visited = scratch.visited;
  visited.assign(h * w, 0);
  std::vector<std::size_t>& stack = scratch.stack;
  stack.clear();
  for (std::size_t start = 0; start < h * w; ++start) {
    if (!mask[start] || visited[start]) continue;
    // Flood fill one component.
    stack.clear();
    stack.push_back(start);
    visited[start] = 1;
    std::size_t min_x = w, max_x = 0, min_y = h, max_y = 0;
    double total = 0.0;
    float peak = 0.0f;
    std::size_t area = 0;
    while (!stack.empty()) {
      const std::size_t cell = stack.back();
      stack.pop_back();
      const std::size_t cy = cell / w, cx = cell % w;
      min_x = std::min(min_x, cx);
      max_x = std::max(max_x, cx);
      min_y = std::min(min_y, cy);
      max_y = std::max(max_y, cy);
      const float v = grid.data()[cell];
      total += v;
      peak = std::max(peak, v);
      ++area;
      const auto try_push = [&](std::size_t n) {
        if (mask[n] && !visited[n]) {
          visited[n] = 1;
          stack.push_back(n);
        }
      };
      // 8-connectivity: sparse returns (lidar dropouts) stay connected.
      const bool left = cx > 0, right = cx + 1 < w;
      const bool up = cy > 0, down = cy + 1 < h;
      if (left) try_push(cell - 1);
      if (right) try_push(cell + 1);
      if (up) try_push(cell - w);
      if (down) try_push(cell + w);
      if (left && up) try_push(cell - w - 1);
      if (right && up) try_push(cell - w + 1);
      if (left && down) try_push(cell + w - 1);
      if (right && down) try_push(cell + w + 1);
    }
    if (area < min_area) continue;
    Region region;
    region.box.x1 = static_cast<float>(min_x);
    region.box.y1 = static_cast<float>(min_y);
    region.box.x2 = static_cast<float>(max_x + 1);
    region.box.y2 = static_cast<float>(max_y + 1);
    region.mean_amplitude = static_cast<float>(total / static_cast<double>(area));
    region.peak_amplitude = peak;
    region.area = area;
    regions.push_back(region);
  }
  return regions;
}

std::vector<Detection> RoiHead::run(const tensor::Tensor& grid,
                                    const std::vector<Proposal>& proposals,
                                    ScanScratch* scratch) const {
  if (grid.numel() == 0) return {};  // no cells, no percentile

  // Without caller scratch, a local one provides the same buffers for this
  // call only; the arithmetic is identical either way.
  ScanScratch local;
  ScanScratch& buffers = scratch != nullptr ? *scratch : local;

  // Threshold the raw grid adaptively: background level from the grid mean,
  // signal level from the 95th percentile. In a degraded context (camera in
  // fog) the percentile sits barely above the noise floor, so the component
  // analysis degrades naturally — clutter components appear and true
  // objects fragment.
  const std::optional<SignalLevels> levels =
      signal_levels(grid.data(), grid.numel(), buffers.values);
  // A NaN cell leaves no order to take a percentile from (its NaN mean
  // would empty the mask anyway).
  if (!levels) return {};
  const float background = grid.mean();
  // Signal estimate: the 95th percentile, floored at a fraction of the
  // peak so sparse scenes (objects covering < 5% of cells) are still
  // segmented.
  const float signal =
      std::max(levels->p95, config_.signal_peak_fraction * levels->peak);
  if (signal <= background) return {};
  const float threshold =
      background + config_.mask_fraction * (signal - background);

  const std::vector<Region>& regions = extract_regions(
      grid, threshold, config_.min_component_area, buffers);

  buffers.region_integral.reset(grid, config_.backend);
  const IntegralImage& integral = buffers.region_integral;
  std::vector<Detection> detections;
  detections.reserve(regions.size());

  for (const Region& region : regions) {
    // Validate against the RPN: keep the best-overlapping proposal's
    // objectness as the region's base score.
    float objectness = 0.0f;
    for (const Proposal& proposal : proposals) {
      if (iou(proposal.box, region.box) >= config_.proposal_validation_iou) {
        objectness = std::max(objectness, proposal.objectness);
      }
    }
    if (objectness <= 0.0f) continue;

    Box box = region.box;
    if (config_.box_deflate != 1.0f) {
      const float half_w = 0.5f * box.width() * config_.box_deflate;
      const float half_h = 0.5f * box.height() * config_.box_deflate;
      const float cx = box.cx(), cy = box.cy();
      box.x1 = cx - half_w;
      box.x2 = cx + half_w;
      box.y1 = cy - half_h;
      box.y2 = cy + half_h;
    }

    // Amplitude measured inside the slightly shrunk box (core signal).
    Box inner = box;
    const float shrink_x = std::min(0.8f, 0.15f * inner.width());
    const float shrink_y = std::min(0.8f, 0.15f * inner.height());
    inner.x1 += shrink_x;
    inner.x2 -= shrink_x;
    inner.y1 += shrink_y;
    inner.y2 -= shrink_y;
    const auto amplitude = static_cast<float>(
        integral.box_mean(inner.valid() ? inner : box));

    // Distance to each prototype in (amplitude, log-extent) space.
    std::vector<float> logits(prototypes_.size());
    for (std::size_t i = 0; i < prototypes_.size(); ++i) {
      const ClassPrototype& p = prototypes_[i];
      const float da = (amplitude - p.amplitude) * config_.amplitude_weight;
      const float dw = std::log(std::max(box.width(), 0.5f) / p.width) *
                       config_.extent_weight;
      const float dh = std::log(std::max(box.height(), 0.5f) / p.height) *
                       config_.extent_weight;
      logits[i] = -(da * da + dw * dw + dh * dh) / config_.temperature;
    }

    // Softmax over class logits.
    float max_logit = logits.empty() ? 0.0f : logits[0];
    for (float l : logits) max_logit = std::max(max_logit, l);
    double total = 0.0;
    for (float& l : logits) {
      l = std::exp(l - max_logit);
      total += l;
    }
    const float inv = total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (float& l : logits) l *= inv;

    std::size_t best = 0;
    for (std::size_t i = 1; i < logits.size(); ++i) {
      if (logits[i] > logits[best]) best = i;
    }

    Detection d;
    d.box = box;
    d.cls = prototypes_[best].cls;
    // Final confidence: objectness moderated by class certainty.
    d.score = objectness * (0.35f + 0.65f * logits[best]);
    d.class_scores = std::move(logits);
    detections.push_back(std::move(d));
  }

  detections = filter_by_score(std::move(detections), config_.min_score);
  // Class-agnostic safety NMS (components are disjoint; kept for safety).
  detections = nms(std::move(detections), config_.nms_iou, /*class_aware=*/false);
  return detections;
}

}  // namespace eco::detect
