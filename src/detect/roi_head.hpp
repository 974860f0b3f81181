// Region-of-interest head: region extraction + classification.
//
// Faster R-CNN's ROI head pools features inside each proposal and predicts
// refined box coordinates plus per-class scores. The substrate equivalent
// extracts candidate regions as connected components of the adaptively
// thresholded (smoothed) observation grid — one component per contiguous
// bright structure — and validates each against the RPN proposals: a
// component is emitted only where the RPN also proposed, and it inherits the
// best overlapping proposal's objectness. Classification is
// nearest-prototype matching in (amplitude, log-width, log-height) space;
// prototypes come from the dataset class priors for the branch's modality,
// so confusable classes (car/van, motorbike/bicycle) stay confusable and
// the classifier degrades smoothly as sensor SNR drops.
#pragma once

#include <optional>
#include <vector>

#include "detect/box.hpp"
#include "detect/rpn.hpp"
#include "tensor/tensor.hpp"

namespace eco::detect {

/// Per-class prototype in the ROI feature space.
struct ClassPrototype {
  ObjectClass cls = ObjectClass::kCar;
  float amplitude = 0.5f;  // expected mean in-box signal
  float width = 4.0f;      // expected box extent (cells)
  float height = 3.0f;

  friend bool operator==(const ClassPrototype&,
                         const ClassPrototype&) = default;
};

/// ROI head configuration.
struct RoiHeadConfig {
  /// Softmax temperature for prototype distances (lower = more confident).
  float temperature = 0.55f;
  /// Weights of the (amplitude, log-width, log-height) distance terms.
  float amplitude_weight = 3.2f;
  float extent_weight = 1.8f;
  /// Mask threshold = background + this fraction of (signal - background),
  /// where signal = max(p95, signal_peak_fraction * peak).
  float mask_fraction = 0.45f;
  /// Weight of the grid peak in the signal estimate. Keeps sparse scenes
  /// segmentable; set to 0 for modalities whose peaks are dominated by
  /// clutter spikes (radar).
  float signal_peak_fraction = 0.6f;
  /// Minimum component area, in cells.
  std::size_t min_component_area = 3;
  /// Minimum IoU between a component box and some RPN proposal for the
  /// component to be validated.
  float proposal_validation_iou = 0.20f;
  /// Multiplicative box shrink about the centre applied before
  /// classification/output (the "trained regression" of a branch whose
  /// sensor smears extent — radar blobs). 1.0 = no change.
  float box_deflate = 1.0f;
  /// Final class-agnostic NMS IoU (safety net; components are disjoint).
  float nms_iou = 0.45f;
  /// Minimum final detection score.
  float min_score = 0.38f;
  /// Kernel backend for the amplitude integral image; kAuto resolves from
  /// the environment (engines stamp a concrete backend at construction).
  tensor::Backend backend = tensor::Backend::kAuto;

  /// Exact equality over every field — the channel-scan plan uses this to
  /// prove two channels' scans interchangeable, so new fields participate
  /// automatically.
  friend bool operator==(const RoiHeadConfig&, const RoiHeadConfig&) = default;
};

/// The ROI head. Stateless apart from configuration + prototypes.
class RoiHead {
 public:
  RoiHead(RoiHeadConfig config, std::vector<ClassPrototype> prototypes);

  /// Extracts and classifies regions on the observation grid (1,H,W),
  /// validated against the RPN proposals. `scratch`, when supplied,
  /// provides the percentile buffer, component-analysis masks and the
  /// amplitude integral image (see detect/scan_scratch.hpp); results are
  /// bitwise identical with or without it. A grid with no cells or with a
  /// NaN cell yields no detections.
  [[nodiscard]] std::vector<Detection> run(
      const tensor::Tensor& grid, const std::vector<Proposal>& proposals,
      ScanScratch* scratch = nullptr) const;

  [[nodiscard]] const RoiHeadConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<ClassPrototype>& prototypes() const noexcept {
    return prototypes_;
  }

 private:
  RoiHeadConfig config_;
  std::vector<ClassPrototype> prototypes_;
};

/// The order statistics the adaptive threshold reads (exposed for tests):
/// the value of 0-based rank n * 95 / 100 and the maximum.
struct SignalLevels {
  float p95 = 0.0f;
  float peak = 0.0f;
};

/// SignalLevels of values[0..n), n > 0: exactly what std::nth_element over
/// a copy returns, or nothing when a value is NaN (no order exists). When
/// every value has its sign bit clear (+0 … +Inf), unsigned bit order is
/// value order: an 11-bit histogram of the top bits finds the bucket that
/// holds the rank, nth_element runs over that bucket alone, and the peak
/// is the largest pattern. A negative value or -0 takes the whole-copy
/// nth_element path. `buffer` stages the copy.
[[nodiscard]] std::optional<SignalLevels> signal_levels(
    const float* values, std::size_t n, std::vector<float>& buffer);

/// Candidate region from the component analysis (exposed for tests).
struct Region {
  Box box;
  float mean_amplitude = 0.0f;
  float peak_amplitude = 0.0f;
  std::size_t area = 0;
};

/// Connected components of `grid >= threshold` (4-connectivity), with
/// components smaller than `min_area` cells discarded.
[[nodiscard]] std::vector<Region> extract_regions(const tensor::Tensor& grid,
                                                  float threshold,
                                                  std::size_t min_area);

/// Scratch-backed variant: identical component walk over the scratch's
/// mask/visited/stack buffers, results deposited in (and referenced from)
/// scratch.regions. One allocation-free call per scan once the buffers are
/// warm.
[[nodiscard]] const std::vector<Region>& extract_regions(
    const tensor::Tensor& grid, float threshold, std::size_t min_area,
    ScanScratch& scratch);

}  // namespace eco::detect
