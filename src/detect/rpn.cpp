#include "detect/rpn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "detect/nms.hpp"
#include "detect/scan_scratch.hpp"

namespace eco::detect {

void IntegralImage::reset(const tensor::Tensor& grid,
                          tensor::Backend backend) {
  const bool chw = grid.dim() == 3;
  if (chw && grid.size(0) != 1) {
    throw std::invalid_argument("IntegralImage: expected single channel");
  }
  if (!chw && grid.dim() != 2) {
    throw std::invalid_argument("IntegralImage: expected (1,H,W) or (H,W)");
  }
  height_ = chw ? grid.size(1) : grid.size(0);
  width_ = chw ? grid.size(2) : grid.size(1);
  // assign() zero-fills row 0 / column 0 and reuses capacity on rebuilds.
  cumulative_.assign((height_ + 1) * (width_ + 1), 0.0);
  const float* data = grid.data();
  const std::size_t w1 = width_ + 1;
  if (tensor::resolve_backend(backend) == tensor::Backend::kSimd) {
    // Two passes: the serial row-prefix chain first (current[x+1] holds
    // this row's running sum), then a vectorized top-to-bottom row add.
    // The single-pass walk stores above + row; this stores row, then adds
    // above — one IEEE addition per cell with its operands swapped, so the
    // tables are bitwise identical.
    double* current = cumulative_.data() + w1;
    for (std::size_t y = 0; y < height_; ++y) {
      const float* grid_row = data + y * width_;
      double row = 0.0;
      for (std::size_t x = 0; x < width_; ++x) {
        row += grid_row[x];
        current[x + 1] = row;
      }
      current += w1;
    }
    detail::integral_rows_add_simd(cumulative_.data() + w1, height_, w1);
    return;
  }
  const double* above = cumulative_.data();  // row y of the table
  double* current = cumulative_.data() + w1;  // row y + 1
  for (std::size_t y = 0; y < height_; ++y) {
    const float* grid_row = data + y * width_;
    double row = 0.0;
    for (std::size_t x = 0; x < width_; ++x) {
      row += grid_row[x];
      current[x + 1] = above[x + 1] + row;
    }
    above = current;
    current += w1;
  }
}

double IntegralImage::box_sum(const Box& box) const noexcept {
  const auto clamp_x = [&](float v) {
    return static_cast<std::size_t>(
        std::clamp(v, 0.0f, static_cast<float>(width_)));
  };
  const auto clamp_y = [&](float v) {
    return static_cast<std::size_t>(
        std::clamp(v, 0.0f, static_cast<float>(height_)));
  };
  const std::size_t x1 = clamp_x(box.x1), x2 = clamp_x(box.x2);
  const std::size_t y1 = clamp_y(box.y1), y2 = clamp_y(box.y2);
  if (x2 <= x1 || y2 <= y1) return 0.0;
  const std::size_t w1 = width_ + 1;
  return cumulative_[y2 * w1 + x2] - cumulative_[y1 * w1 + x2] -
         cumulative_[y2 * w1 + x1] + cumulative_[y1 * w1 + x1];
}

double IntegralImage::box_mean(const Box& box) const noexcept {
  const auto clamped = box.clipped(static_cast<float>(width_),
                                   static_cast<float>(height_));
  const float area = clamped.area();
  if (area <= 0.0f) return 0.0;
  return box_sum(clamped) / area;
}

tensor::Tensor box_blur3(const tensor::Tensor& grid) {
  tensor::Tensor out;
  box_blur3_into(grid, out);
  return out;
}

void box_blur3_into_reference(const tensor::Tensor& grid,
                              tensor::Tensor& out) {
  const std::size_t h = grid.size(1), w = grid.size(2);
  if (out.shape() != tensor::Shape{1, h, w}) {
    out.resize({1, h, w});
  }
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      float acc = 0.0f;
      int n = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        const std::ptrdiff_t yy = static_cast<std::ptrdiff_t>(y) + dy;
        if (yy < 0 || yy >= static_cast<std::ptrdiff_t>(h)) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          const std::ptrdiff_t xx = static_cast<std::ptrdiff_t>(x) + dx;
          if (xx < 0 || xx >= static_cast<std::ptrdiff_t>(w)) continue;
          acc += grid.at(0, static_cast<std::size_t>(yy),
                         static_cast<std::size_t>(xx));
          ++n;
        }
      }
      out.at(0, y, x) = n > 0 ? acc / static_cast<float>(n) : 0.0f;
    }
  }
}

namespace detail {

/// Guarded blur of one cell; taps visited in the reference's dy→dx order.
float blur_cell_guarded(const float* g, std::size_t h, std::size_t w,
                        std::size_t y, std::size_t x) {
  float acc = 0.0f;
  int n = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    const std::ptrdiff_t yy = static_cast<std::ptrdiff_t>(y) + dy;
    if (yy < 0 || yy >= static_cast<std::ptrdiff_t>(h)) continue;
    const float* row = g + static_cast<std::size_t>(yy) * w;
    for (int dx = -1; dx <= 1; ++dx) {
      const std::ptrdiff_t xx = static_cast<std::ptrdiff_t>(x) + dx;
      if (xx < 0 || xx >= static_cast<std::ptrdiff_t>(w)) continue;
      acc += row[static_cast<std::size_t>(xx)];
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<float>(n) : 0.0f;
}

}  // namespace detail

void box_blur3_into(const tensor::Tensor& grid, tensor::Tensor& out,
                    tensor::Backend backend) {
  if (tensor::resolve_backend(backend) == tensor::Backend::kReference) {
    box_blur3_into_reference(grid, out);
    return;
  }
  box_blur3_into_simd(grid, out);
}

void box_blur3_into(const tensor::Tensor& grid, tensor::Tensor& out) {
  box_blur3_into(grid, out, tensor::Backend::kAuto);
}

Rpn::Rpn(RpnConfig config) : config_(std::move(config)) {}

std::vector<Proposal> Rpn::propose(const tensor::Tensor& grid,
                                   ScanScratch* scratch) const {
  if (grid.dim() != 3 || grid.size(0) != 1) {
    throw std::invalid_argument("Rpn::propose: expected (1,H,W) grid");
  }
  // With scratch, anchors + scoring geometry come from the process-wide
  // scan-plan cache — exactly the values a fresh generation returns.
  if (scratch != nullptr) {
    const ScanPlan& plan =
        scratch->plan_for(grid.size(1), grid.size(2), config_);
    return propose_with_plan(grid, plan, *scratch);
  }
  return propose_with_anchors(
      grid, generate_anchors(grid.size(1), grid.size(2), config_.anchors),
      nullptr);
}

std::vector<std::vector<Proposal>> Rpn::propose_batch(
    const std::vector<const tensor::Tensor*>& grids,
    ScanScratch* scratch) const {
  std::vector<std::vector<Proposal>> proposals;
  proposals.reserve(grids.size());
  std::vector<Box> anchors;
  std::size_t anchor_h = 0, anchor_w = 0;
  for (const tensor::Tensor* grid : grids) {
    if (grid == nullptr || grid->dim() != 3 || grid->size(0) != 1) {
      throw std::invalid_argument("Rpn::propose_batch: expected (1,H,W) grid");
    }
    if (scratch != nullptr) {
      // Shared plan (and, transitively, the precomputed scoring geometry)
      // — identical values to a per-batch generation.
      const ScanPlan& plan =
          scratch->plan_for(grid->size(1), grid->size(2), config_);
      proposals.push_back(propose_with_plan(*grid, plan, *scratch));
      continue;
    }
    if (anchors.empty() || grid->size(1) != anchor_h ||
        grid->size(2) != anchor_w) {
      anchor_h = grid->size(1);
      anchor_w = grid->size(2);
      anchors = generate_anchors(anchor_h, anchor_w, config_.anchors);
    }
    proposals.push_back(propose_with_anchors(*grid, anchors, scratch));
  }
  return proposals;
}

namespace {

/// Appends (ascending) the anchors whose contrast reaches the threshold:
/// `contrast >= min_contrast`, so a NaN contrast never becomes a proposal
/// (vector compare + movemask on kSimd, the same predicate per anchor on
/// kReference). Every backend stages through the same buffer, which keeps
/// the arena footprint backend-invariant.
void collect_candidates(ScanScratch& scratch, bool simd,
                        const RpnConfig& config) {
  const std::vector<double>& contrast = scratch.contrast;
  std::vector<std::uint32_t>& out = scratch.candidates;
  out.clear();
  const auto threshold = static_cast<double>(config.min_contrast);
  if (simd) {
    detail::collect_candidates_simd(contrast.data(), contrast.size(),
                                    threshold, out);
    return;
  }
  for (std::size_t i = 0; i < contrast.size(); ++i) {
    if (contrast[i] >= threshold) out.push_back(static_cast<std::uint32_t>(i));
  }
}

/// Objectness of a ranked key (see finish_candidates).
float key_score(std::uint64_t key) noexcept {
  return std::bit_cast<float>(~static_cast<std::uint32_t>(key >> 32));
}

/// Sigmoid objectness, NMS and top-k over the candidates, shared by both
/// propose paths. Bitwise what emitting one Detection per candidate, then
/// nms_in_place (class-agnostic) and keep_top_k_in_place return, without
/// staging Detections:
///  - each candidate becomes one uint64 key, (~bits(score) << 32) | anchor
///    index. Scores are +0 … 1 and never NaN, so ascending keys are exactly
///    NMS's (score desc, emission index asc) order — candidates are
///    emitted in ascending anchor order;
///  - the suppression sweep stops once top_k + 1 boxes are kept.
///    keep_top_k's partial_sort over a score-sorted range never admits an
///    element past its middle, so all that matters is whether it runs
///    (more than top_k kept); when it does it reorders tied scores, so it
///    runs here too, with the same comparator, over the same first top_k.
std::vector<Proposal> finish_candidates(const std::vector<Box>& anchors,
                                        ScanScratch& scratch,
                                        const RpnConfig& config) {
  std::vector<std::uint64_t>& ranked = scratch.ranked;
  ranked.clear();
  for (const std::uint32_t idx : scratch.candidates) {
    // Sigmoid squashing of the contrast to [0,1] objectness.
    const auto score = static_cast<float>(
        1.0 / (1.0 + std::exp(-config.contrast_scale * scratch.contrast[idx])));
    const std::uint32_t descending = ~std::bit_cast<std::uint32_t>(score);
    ranked.push_back((std::uint64_t{descending} << 32) | idx);
  }
  std::sort(ranked.begin(), ranked.end());
  const std::size_t limit =
      ranked.size() > config.top_k ? config.top_k + 1 : config.top_k;
  std::size_t kept = suppress_in_order(anchors.data(), ranked.data(),
                                       ranked.size(), config.nms_iou, limit);
  if (kept > config.top_k) {
    const auto first = ranked.begin();
    std::partial_sort(first, first + static_cast<std::ptrdiff_t>(config.top_k),
                      first + static_cast<std::ptrdiff_t>(kept),
                      [](std::uint64_t a, std::uint64_t b) {
                        return key_score(a) > key_score(b);
                      });
    kept = config.top_k;
  }
  std::vector<Proposal> proposals;
  proposals.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    proposals.push_back(Proposal{
        anchors[static_cast<std::uint32_t>(ranked[i])], key_score(ranked[i])});
  }
  return proposals;
}

}  // namespace

std::vector<Proposal> Rpn::propose_with_plan(const tensor::Tensor& grid,
                                             const ScanPlan& plan,
                                             ScanScratch& scratch) const {
  const bool simd =
      tensor::resolve_backend(config_.backend) == tensor::Backend::kSimd;
  const std::vector<Box>& anchors = plan.anchors;
  const std::vector<AnchorGeometry>& geometry = plan.geometry;

  // Two passes on both backends: a branch-light contrast sweep over all
  // anchors into scratch.contrast (vectorized on kSimd, scalar on
  // kReference), then the candidate filter and the shared finish over the
  // ~3% that pass.
  scratch.contrast.resize(anchors.size());
  box_blur3_into(grid, scratch.smoothed, config_.backend);
  scratch.integral.reset(scratch.smoothed, config_.backend);
  if (simd) {
    detail::anchor_contrast_pass_simd(scratch.integral.table(),
                                      geometry.data(), anchors.size(),
                                      scratch.contrast.data());
  } else {
    const IntegralImage& integral = scratch.integral;
    // Scalar scoring against the plan's precomputed geometry: each anchor
    // costs eight table lookups plus the scoring arithmetic — the identical
    // numbers the clip/clamp path produces.
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      const AnchorGeometry& g = geometry[i];
      const double inner_sum =
          g.inner_valid
              ? integral.flat_sum(g.inner00, g.inner01, g.inner10, g.inner11)
              : 0.0;
      const double ring_sum =
          g.ring_valid
              ? integral.flat_sum(g.ring00, g.ring01, g.ring10, g.ring11)
              : 0.0;
      const double inside =
          g.inner_area > 0.0f ? inner_sum / g.inner_area : 0.0;
      const double ring_area = g.ring_area;
      const double background =
          ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
      scratch.contrast[i] = inside - background;
    }
  }
  collect_candidates(scratch, simd, config_);
  return finish_candidates(anchors, scratch, config_);
}

std::vector<Proposal> Rpn::propose_with_anchors(
    const tensor::Tensor& grid, const std::vector<Box>& anchors,
    ScanScratch* scratch) const {
  const std::size_t h = grid.size(1), w = grid.size(2);

  // With scratch, the smoothed grid, the integral table and the staging
  // buffers reuse the caller's; the arithmetic is identical either way.
  ScanScratch local;
  ScanScratch& buffers = scratch != nullptr ? *scratch : local;
  box_blur3_into(grid, buffers.smoothed, config_.backend);
  buffers.integral.reset(buffers.smoothed, config_.backend);
  const IntegralImage& integral = buffers.integral;

  const auto limit_w = static_cast<float>(w);
  const auto limit_h = static_cast<float>(h);
  std::vector<double>& contrast = buffers.contrast;
  contrast.resize(anchors.size());
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const Box& anchor = anchors[i];
    // The clipped anchor and its sum feed three places (inside mean, the
    // ring background, the ring area); compute them once. Identical
    // values and operation order as the box_mean/box_sum calls this
    // replaces.
    const Box inner = anchor.clipped(limit_w, limit_h);
    const float inner_area = inner.area();
    const double inner_sum = integral.box_sum(inner);
    Box ring = anchor;
    ring.x1 -= config_.ring;
    ring.y1 -= config_.ring;
    ring.x2 += config_.ring;
    ring.y2 += config_.ring;
    ring = ring.clipped(limit_w, limit_h);
    const double ring_sum = integral.box_sum(ring);
    const double ring_area = ring.area() - inner_area;
    const double inside = inner_area > 0.0f ? inner_sum / inner_area : 0.0;
    const double background =
        ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
    contrast[i] = inside - background;
  }
  collect_candidates(buffers, /*simd=*/false, config_);
  return finish_candidates(anchors, buffers, config_);
}

}  // namespace eco::detect
