// Region Proposal Network.
//
// Faster R-CNN's RPN scores a dense anchor grid for objectness and proposes
// candidate regions. Our substrate implements the same contract with a
// deterministic signal-processing head (DESIGN.md §2): objectness is the
// contrast between the mean activation inside an anchor and the mean in its
// surrounding ring, computed in O(1) per anchor via an integral image.
// Proposal quality therefore tracks the sensor's SNR in the current context,
// which is exactly the property the gate model exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/anchors.hpp"
#include "detect/box.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor.hpp"

namespace eco::detect {

/// An RPN proposal: candidate box + objectness score in [0, 1].
struct Proposal {
  Box box;
  float objectness = 0.0f;
};

/// Integral image over a (1,H,W) or (H,W) grid for O(1) box sums.
class IntegralImage {
 public:
  /// Empty image; reset() before use. Lets scan scratch buffers keep the
  /// accumulator's capacity across scans instead of reallocating per scan.
  IntegralImage() = default;

  explicit IntegralImage(const tensor::Tensor& grid) { reset(grid); }

  /// Rebuilds the cumulative table for `grid`, reusing existing storage
  /// when it suffices (a same-extent rebuild never touches the heap). The
  /// reference backend walks raw row pointers in the same left-to-right,
  /// top-to-bottom order as ever; the simd backend splits
  /// the walk into a serial row-prefix pass and a vectorized row-add pass,
  /// which is bitwise identical because the only reassociation is swapping
  /// the two operands of one IEEE addition per cell. kAuto resolves from
  /// the environment.
  void reset(const tensor::Tensor& grid,
             tensor::Backend backend = tensor::Backend::kAuto);

  /// Sum of grid values over [x1,x2) x [y1,y2) clamped to bounds.
  [[nodiscard]] double box_sum(const Box& box) const noexcept;

  /// box_sum with the four clamped table offsets precomputed by the caller
  /// (see ScanScratch's anchor geometry): the identical four lookups and
  /// add/subtract order, minus the per-call clamping.
  [[nodiscard]] double flat_sum(std::size_t i00, std::size_t i01,
                                std::size_t i10,
                                std::size_t i11) const noexcept {
    return cumulative_[i11] - cumulative_[i01] - cumulative_[i10] +
           cumulative_[i00];
  }

  /// Raw cumulative table, (H+1)×(W+1) row-major — the anchor-scoring
  /// vector pass gathers corner values directly from it (the identical
  /// lookups flat_sum makes).
  [[nodiscard]] const double* table() const noexcept {
    return cumulative_.data();
  }

  /// Mean of grid values over the box (0 if empty).
  [[nodiscard]] double box_mean(const Box& box) const noexcept;

  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Bytes of retained accumulator capacity (arena accounting).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return cumulative_.capacity() * sizeof(double);
  }

 private:
  std::size_t height_ = 0;
  std::size_t width_ = 0;
  std::vector<double> cumulative_;  // (H+1) x (W+1)
};

/// RPN configuration.
struct RpnConfig {
  AnchorConfig anchors;
  /// Ring width (cells) around the anchor used as local background.
  float ring = 2.0f;
  /// Minimum inside-vs-ring contrast for a proposal to survive.
  float min_contrast = 0.09f;
  /// Proposal-stage NMS IoU.
  float nms_iou = 0.60f;
  /// Max proposals forwarded to the ROI head.
  std::size_t top_k = 48;
  /// Contrast scale mapping to objectness (sigmoid temperature).
  float contrast_scale = 9.0f;
  /// Kernel backend for the blur/integral/scoring kernels; kAuto resolves
  /// from the environment (engines stamp a concrete backend at
  /// construction). All backends are bitwise identical, but the field
  /// participates in equality so plan-cache keys and scan-equivalence
  /// never alias configs that run different code paths.
  tensor::Backend backend = tensor::Backend::kAuto;

  /// Exact equality over every field — the channel-scan plan uses this to
  /// prove two channels' scans interchangeable, so new fields participate
  /// automatically.
  friend bool operator==(const RpnConfig&, const RpnConfig&) = default;
};

/// Reusable storage for every per-scan intermediate of the RPN + ROI-head
/// path; defined in detect/scan_scratch.hpp (the exec layer's FrameArena
/// owns one per pipeline slot so buffers persist across frames). Purely an
/// allocation optimization: results are bitwise identical with or without
/// scratch.
struct ScanScratch;

/// Immutable anchor grid + scoring geometry for one (extent, RpnConfig);
/// built once per key in the process-wide plan cache and shared by every
/// scratch (detect/scan_scratch.hpp).
struct ScanPlan;

/// Precomputed per-anchor scoring geometry (detect/scan_scratch.hpp).
struct AnchorGeometry;

/// The proposal network. Stateless apart from configuration.
///
/// NaN contract: an anchor becomes a proposal only when its contrast
/// satisfies `contrast >= min_contrast`, an ordered compare on every
/// backend, so a NaN contrast (a NaN cell reaches every anchor whose
/// integral-table corners lie below or right of it) is never proposed and
/// every objectness is a number in [0, 1]. Proposals come out in (objectness
/// desc, anchor index asc) order, except that when more than top_k survive
/// NMS the top_k are re-sorted by objectness alone, as
/// keep_top_k_in_place does. A grid with no cells yields no proposals.
class Rpn {
 public:
  explicit Rpn(RpnConfig config = {});

  /// Proposes regions on a single-channel observation/feature grid (1,H,W).
  /// `scratch`, when supplied, provides reusable intermediate buffers.
  [[nodiscard]] std::vector<Proposal> propose(
      const tensor::Tensor& grid, ScanScratch* scratch = nullptr) const;

  [[nodiscard]] const RpnConfig& config() const noexcept { return config_; }

 private:
  /// The scratch-free propose(): scoring over freshly generated `anchors`
  /// (they depend only on the grid extent) in call-local buffers. Bitwise
  /// identical to the plan path below.
  [[nodiscard]] std::vector<Proposal> propose_with_anchors(
      const tensor::Tensor& grid, const std::vector<Box>& anchors) const;

  /// Scoring over a shared plan's precomputed geometry — what every
  /// scratch-threaded propose runs. Both backends score in two passes: a
  /// contrast sweep into scratch->contrast (vectorized on simd), then the
  /// threshold filter and the shared sigmoid / sort / NMS / top-k finish
  /// over the survivors. Bitwise identical either way.
  [[nodiscard]] std::vector<Proposal> propose_with_plan(
      const tensor::Tensor& grid, const ScanPlan& plan,
      ScanScratch& scratch) const;

  RpnConfig config_;
};

/// 3x3 box blur used as the fixed smoothing "convolution" ahead of scoring.
[[nodiscard]] tensor::Tensor box_blur3(const tensor::Tensor& grid);

/// Same blur into a caller-owned output tensor (reshaped when needed), so
/// repeated scans can reuse the allocation. Bitwise identical to box_blur3.
/// Dispatches like tensor::conv2d_rows: kAuto resolves from ECO_BACKEND.
void box_blur3_into(const tensor::Tensor& grid, tensor::Tensor& out);

/// The original guarded per-tap loop, kept as the blur's ground truth.
void box_blur3_into_reference(const tensor::Tensor& grid, tensor::Tensor& out);

/// Vectorized blur: four interior cells per step, each lane summing the
/// nine taps in the reference's row-major order and then dividing (per-lane
/// IEEE ops, so bitwise identical to the reference). Borders keep the
/// guarded path.
void box_blur3_into_simd(const tensor::Tensor& grid, tensor::Tensor& out);

/// Explicit-backend blur entry point; the two-argument overload dispatches
/// with kAuto (environment default).
void box_blur3_into(const tensor::Tensor& grid, tensor::Tensor& out,
                    tensor::Backend backend);

namespace detail {

/// The guarded border cell of the simd blur, visiting taps in the
/// reference kernel's dy→dx order.
[[nodiscard]] float blur_cell_guarded(const float* g, std::size_t h,
                                      std::size_t w, std::size_t y,
                                      std::size_t x);

/// Integral-image pass 2: for each of `rows` rows (top to bottom), adds the
/// previous row of the (rows+1)×w1 table elementwise — vectorized within a
/// row. `table` points at the second table row (the first holds the zero
/// border).
void integral_rows_add_simd(double* table, std::size_t rows, std::size_t w1);

/// Anchor-scoring pass 1: contrast of every anchor against its background
/// ring, two 2-lane gathers + divides at a time (four on AVX2 hardware),
/// each lane replicating the scalar scoring chain exactly. `table` is
/// IntegralImage::table().
void anchor_contrast_pass_simd(const double* table,
                               const AnchorGeometry* geometry,
                               std::size_t count, double* contrast_out);

/// Anchor-scoring pass 2 prefilter: appends (ascending) the indices whose
/// contrast passes the scalar predicate `contrast >= threshold` (so a NaN
/// contrast never passes). Comparisons are exact, so the survivor set
/// equals the scalar walk's.
void collect_candidates_simd(const double* contrast, std::size_t count,
                             double threshold,
                             std::vector<std::uint32_t>& out);

}  // namespace detail

}  // namespace eco::detect
