// A branch detector (§4.3 of the paper): one object-detection pipeline that
// consumes either a single sensor grid (no fusion) or several grids fused at
// the input (early fusion), and produces detections via RPN + ROI head.
//
// In the paper each branch is the tail of a ResNet-18 Faster R-CNN whose
// first convolution block is shared as the stem; an early-fusion branch sees
// its sensors as stacked input channels. The substrate models what such a
// trained network can extract from stacked channels: each channel is scanned
// by the shared RPN and a channel-specific ROI head, and the per-channel
// detections are merged with a plain union (class-agnostic NMS, no
// cross-channel consensus). The union gives early fusion the recall of all
// its inputs at single-branch cost, but — unlike the late-fusion block —
// there is no per-modality confidence calibration, so a channel that turns
// to noise (camera in fog/snow) floods the branch with false positives.
// That asymmetry reproduces the paper's "early fusion is efficient but
// fragile" behaviour.
#pragma once

#include <string>
#include <vector>

#include "detect/box.hpp"
#include "detect/roi_head.hpp"
#include "detect/rpn.hpp"
#include "tensor/tensor.hpp"

namespace eco::detect {

/// How fuse_inputs() composes grids (utility view of the stacked input;
/// detection itself runs per channel).
enum class EarlyFusionMode {
  kMean,  // average aligned grids
  kMax,   // per-cell maximum
};

/// Branch configuration.
struct BranchConfig {
  std::string name = "branch";
  /// Number of input grids this branch expects (1 = no fusion).
  std::size_t input_count = 1;
  EarlyFusionMode fusion_mode = EarlyFusionMode::kMean;
  RpnConfig rpn;
  /// Per-input-channel ROI head configuration; if fewer entries than
  /// input_count, the last entry (or a default) is reused.
  std::vector<RoiHeadConfig> roi_per_input = {RoiHeadConfig{}};
  /// IoU of the class-agnostic union-merge across channels.
  float channel_merge_iou = 0.50f;
};

/// One detector branch, decomposed into two stages the execution layer can
/// schedule independently:
///   * a pure per-channel *scan* — RPN proposals + that channel's ROI head
///     on one grid (scan_channel); and
///   * a cheap per-branch *merge* — union + class-agnostic NMS of the
///     channels' scan results (merge_channel_scans; a single-channel branch
///     passes its scan through untouched).
/// detect() is exactly scan-then-merge, so callers that memoize scans
/// across branches (exec/channel_scan_cache) produce bitwise identical
/// detections to a whole-branch call.
class BranchDetector {
 public:
  /// `prototypes_per_input` supplies the ROI prototypes for each input
  /// channel (arity must equal config.input_count).
  BranchDetector(BranchConfig config,
                 std::vector<std::vector<ClassPrototype>> prototypes_per_input);

  /// Runs detection: scan_channel() on each input grid, then
  /// merge_channel_scans(). `grids` must contain config().input_count grids
  /// of shape (1,H,W).
  [[nodiscard]] std::vector<Detection> detect(
      const std::vector<tensor::Tensor>& grids) const;

  /// The per-channel scan: RPN proposals + channel `channel`'s ROI head on
  /// `grid`. `scratch`, when supplied, provides reusable scan buffers.
  [[nodiscard]] std::vector<Detection> scan_channel(
      std::size_t channel, const tensor::Tensor& grid,
      ScanScratch* scratch = nullptr) const;

  /// The per-branch merge of the channels' scan results, in channel order:
  /// plain union + class-agnostic NMS (see header comment); a
  /// single-channel branch's scan passes through unchanged.
  [[nodiscard]] std::vector<Detection> merge_channel_scans(
      std::vector<std::vector<Detection>> per_channel) const;

  /// True when channel `channel` of this branch and channel `other_channel`
  /// of `other` run the identical scan — same RPN configuration, same ROI
  /// head configuration and same prototypes, compared exactly. Callers that
  /// additionally feed both channels the same grid may share one scan's
  /// result between them.
  [[nodiscard]] bool scan_equivalent(std::size_t channel,
                                     const BranchDetector& other,
                                     std::size_t other_channel) const;

  /// The composited input grid (exposed for tests and visualisation).
  [[nodiscard]] tensor::Tensor fuse_inputs(
      const std::vector<tensor::Tensor>& grids) const;

  [[nodiscard]] const BranchConfig& config() const noexcept { return config_; }

  /// The ROI head that scans input channel `channel`.
  [[nodiscard]] const RoiHead& roi_head(std::size_t channel) const {
    return roi_heads_.at(channel);
  }

 private:
  BranchConfig config_;
  Rpn rpn_;
  std::vector<RoiHead> roi_heads_;  // one per input channel
};

}  // namespace eco::detect
