// Per-frame channel-scan memoization.
//
// BranchDetector decomposes into a pure per-channel scan (RPN proposals +
// one ROI head on one sensor grid) and a cheap per-branch merge (union +
// class-agnostic NMS). Within a frame, several branches read the same
// sensor channel with identical scan parameters — the paper's ensemble
// configuration re-reads 7 channels of which only 4 are unique — and before
// this layer each branch re-ran those scans from scratch. A ChannelScanCache
// memoizes one frame's scans keyed by the engine's ChannelScanPlan ids, so
// any channel shared by multiple branches is scanned exactly once per frame.
//
// Sharing is bitwise invisible: two (branch, channel) pairs share a scan id
// only when the plan proved their scans interchangeable (same sensor grid,
// exactly equal RPN + ROI head + prototypes), and a scan is a deterministic
// function of (parameters, grid). The `share` toggle exists so the runtime
// can pin that invariance: with sharing off every request runs its own scan
// (slots degrade to per-(branch, channel)), and reports must not move.
//
// Every scan of the frame writes through the workspace FrameArena's
// ScanScratch — the reusable blur/integral/ROI buffers that persist across
// frames of a pipeline slot (PR 4 owned a per-frame scratch here; the arena
// generalized it so steady-state frames make zero tensor heap allocations).
//
// A cache is single-threaded state owned by one FrameWorkspace.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/config_space.hpp"
#include "dataset/generator.hpp"
#include "detect/box.hpp"
#include "detect/scan_scratch.hpp"

namespace eco::core {
class EcoFusionEngine;
}

namespace eco::exec {

class ChannelScanCache {
 public:
  /// `scratch` provides the reusable scan buffers (typically the workspace
  /// FrameArena's; must outlive the cache).
  ChannelScanCache(const core::EcoFusionEngine& engine,
                   const dataset::Frame& frame, bool share,
                   detect::ScanScratch& scratch);

  /// The scan result for input channel `channel` of `branch`; the scan runs
  /// on first use of its slot (the unique scan when sharing, the
  /// (branch, channel) pair otherwise). Every call counts one requested
  /// scan; slot fills count one executed scan.
  [[nodiscard]] const std::vector<detect::Detection>& scan(
      core::BranchId branch, std::size_t channel);

  /// Channel scans consumed by branch materializations on this frame.
  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
  /// Channel scans actually executed — the "unique" count; equals
  /// requested() when sharing is off.
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  [[nodiscard]] std::size_t slot_of(core::BranchId branch,
                                    std::size_t channel) const;

  const core::EcoFusionEngine& engine_;
  const dataset::Frame& frame_;
  bool share_;
  std::vector<std::optional<std::vector<detect::Detection>>> slots_;
  detect::ScanScratch* scratch_;
  std::size_t requested_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace eco::exec
