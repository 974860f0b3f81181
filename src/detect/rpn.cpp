#include "detect/rpn.hpp"

#include <algorithm>
#include <cmath>
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

/// Threshold + sigmoid of one scored anchor; shared by every scoring path
/// so the proposal-forming arithmetic has a single definition.
inline void emit_if_contrast(std::vector<Detection>& raw, const Box& anchor,
                             double contrast, const RpnConfig& config) {
  if (contrast < config.min_contrast) return;
  Detection d;
  d.box = anchor;
  // Sigmoid squashing of the contrast to [0,1] objectness.
  d.score = static_cast<float>(
      1.0 / (1.0 + std::exp(-config.contrast_scale * contrast)));
  raw.push_back(d);
}

/// NMS + top-k + proposal forming, shared by both propose paths.
std::vector<Proposal> finish_proposals(std::vector<Detection>& raw,
                                       const RpnConfig& config) {
  nms_in_place(raw, config.nms_iou, /*class_aware=*/false);
  keep_top_k_in_place(raw, config.top_k);
  std::vector<Proposal> proposals;
  proposals.reserve(raw.size());
  for (const Detection& d : raw) {
    proposals.push_back(Proposal{d.box, d.score});
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

  std::vector<Detection>& raw = scratch.raw_detections;
  raw.clear();

  // Two passes on both backends: a branch-light contrast sweep over all
  // anchors into scratch.contrast (vectorized on kSimd, scalar on
  // kReference), then a shared threshold/sigmoid walk over the ~3% that
  // pass. Staging through the same buffer on both backends keeps the
  // downstream candidate/emit/NMS flow — and the scratch footprint the
  // arena reports — structurally identical.
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
  // Prefilter the survivor indices (vectorized compare + movemask on kSimd,
  // the identical scalar predicate on kReference) so the sigmoid walk only
  // touches anchors that pass. The predicate is `!(contrast < threshold)` —
  // exactly emit_if_contrast's early-return, NaN behaviour included — so the
  // emitted set and order match the old full walk. Every backend stages
  // through scratch.candidates to keep the arena footprint backend-invariant.
  scratch.candidates.clear();
  const auto threshold = static_cast<double>(config_.min_contrast);
  if (simd) {
    detail::collect_candidates_simd(scratch.contrast.data(), anchors.size(),
                                    threshold, scratch.candidates);
  } else {
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      if (!(scratch.contrast[i] < threshold)) {
        scratch.candidates.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  for (const std::uint32_t idx : scratch.candidates) {
    emit_if_contrast(raw, anchors[idx], scratch.contrast[idx], config_);
  }
  return finish_proposals(raw, config_);
}

std::vector<Proposal> Rpn::propose_with_anchors(
    const tensor::Tensor& grid, const std::vector<Box>& anchors,
    ScanScratch* scratch) const {
  const std::size_t h = grid.size(1), w = grid.size(2);

  // With scratch, the smoothed grid and the integral table reuse the
  // caller's buffers; the arithmetic is identical either way.
  ScanScratch local;
  ScanScratch& buffers = scratch != nullptr ? *scratch : local;
  box_blur3_into(grid, buffers.smoothed, config_.backend);
  buffers.integral.reset(buffers.smoothed, config_.backend);
  const IntegralImage& integral = buffers.integral;

  std::vector<Detection>& raw = buffers.raw_detections;
  raw.clear();
  raw.reserve(anchors.size() / 4);

  const auto limit_w = static_cast<float>(w);
  const auto limit_h = static_cast<float>(h);
  for (const Box& anchor : anchors) {
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
    emit_if_contrast(raw, anchor, inside - background, config_);
  }
  return finish_proposals(raw, config_);
}

}  // namespace eco::detect
