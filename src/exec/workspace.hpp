// Per-frame execution workspace.
//
// The engine's entry points (run_static, config_losses, run_adaptive and
// the oracle-loss path inside it) all need the same intermediates — stem
// features F, per-branch detections — and before this layer existed each
// entry point recomputed them from scratch, so an oracle-gated adaptive
// pass executed the winning configuration's branches twice. A
// FrameWorkspace memoizes those intermediates for one frame: every branch
// executes at most once per workspace, and the stems run only when a gate
// actually pulls F (the workspace is the gating::FeatureSource handed to
// the gate). All memoized values are produced by the same deterministic
// code paths the unmemoized engine used, so routing through a workspace is
// bitwise invisible in results.
//
// Branch detections resolve through a per-frame ChannelScanCache: each
// branch decomposes into per-channel scans plus a cheap merge, and a channel
// shared by several branches is scanned once per frame (bitwise invisible —
// see exec/channel_scan_cache.hpp; `share_channel_scans` pins the toggle).
//
// A workspace is single-threaded state: one workspace per (frame, task).
// The constructor that attaches a TemporalStemCache serves only perfbench's
// frame_latency diagnostic; the runtime computes F directly.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config_space.hpp"
#include "dataset/generator.hpp"
#include "exec/channel_scan_cache.hpp"
#include "exec/frame_arena.hpp"
#include "fusion/wbf.hpp"
#include "gating/gate.hpp"
#include "tensor/tensor.hpp"

namespace eco::core {
class EcoFusionEngine;
}

namespace eco::exec {

class TemporalStemCache;

/// How a workspace resolved the frame's gate features F.
enum class StemSource : std::uint8_t {
  kSkipped = 0,  // no gate ever read F; the stems never ran
  kComputed,     // computed directly (no temporal cache attached)
  // Benchmark-only (perfbench's frame_latency drives the cache; the
  // runtime never attaches one); a [benchmark] change retires both.
  kCacheMiss,    // temporal cache consulted: full compute + store
  kCacheHit,     // temporal cache reused/delta-refreshed a prior frame
};

class FrameWorkspace final : public gating::FeatureSource {
 public:
  /// `share_channel_scans` controls cross-branch scan reuse within this
  /// frame (on by default; results are bitwise identical either way).
  /// `arena`, when supplied, provides the frame's reusable memory (tensor
  /// pool + scan scratch) so repeated frames through one arena stop
  /// allocating; the workspace resets its tensor slots at construction.
  /// Without one, the workspace owns a private arena with the same
  /// semantics for this frame only. Results are bitwise identical either
  /// way.
  explicit FrameWorkspace(const core::EcoFusionEngine& engine,
                          const dataset::Frame& frame,
                          bool share_channel_scans = true,
                          FrameArena* arena = nullptr);

  /// Attaches temporal stem caching: F resolves through `cache` under
  /// `sequence_id` (frames of one sequence share cache state).
  /// Benchmark-only: perfbench/driver/workloads.cpp (frame_latency) is its
  /// one caller, and a [benchmark] change retires it with the cache.
  FrameWorkspace(const core::EcoFusionEngine& engine,
                 const dataset::Frame& frame, TemporalStemCache* cache,
                 std::uint64_t sequence_id, bool share_channel_scans = true,
                 FrameArena* arena = nullptr);

  [[nodiscard]] const dataset::Frame& frame() const noexcept { return frame_; }
  [[nodiscard]] const core::EcoFusionEngine& engine() const noexcept {
    return engine_;
  }

  /// Lazily computed, memoized stem features F (gating::FeatureSource).
  [[nodiscard]] const tensor::Tensor& gate_features() const override;

  /// Memoized detections of one branch; the branch executes on first call.
  [[nodiscard]] const fusion::DetectionList& branch_detections(
      core::BranchId branch);

  /// Ground-truth fusion loss L_f(φ) of every configuration; each branch
  /// executes at most once (shared with any later branch consumer).
  [[nodiscard]] const std::vector<float>& config_losses();

  /// The frame's channel-scan cache.
  [[nodiscard]] ChannelScanCache& channel_scans() noexcept { return scans_; }

  // ---- observability --------------------------------------------------
  /// Branch executions attributed to this frame (memoized reuse is free).
  [[nodiscard]] std::size_t branch_executions() const noexcept {
    return branch_executions_;
  }
  /// Channel scans consumed / actually executed for this frame. With scan
  /// sharing on, executed < consumed whenever branches overlapped on a
  /// channel; with sharing off the two are equal.
  [[nodiscard]] std::size_t channel_scans_requested() const noexcept {
    return scans_.requested();
  }
  [[nodiscard]] std::size_t channel_scans_unique() const noexcept {
    return scans_.executed();
  }
  [[nodiscard]] StemSource stem_source() const noexcept {
    return stem_source_;
  }
  /// Bytes of reusable buffer capacity the frame's arena retains.
  [[nodiscard]] std::size_t arena_bytes_high_water() const noexcept {
    return arena_->bytes_high_water();
  }

 private:
  const core::EcoFusionEngine& engine_;
  const dataset::Frame& frame_;
  FrameArena owned_arena_;  // used only when no external arena is supplied
  FrameArena* arena_;
  ChannelScanCache scans_;
  TemporalStemCache* stem_cache_ = nullptr;
  std::uint64_t sequence_id_ = 0;

  // Memoized intermediates. `mutable` because FeatureSource::gate_features
  // is const for gate consumers; memoization is the workspace's job.
  // Arena-computed features live in the arena (features_view_); cache- or
  // stem-computed ones are owned (features_).
  mutable std::optional<tensor::Tensor> features_;
  mutable const tensor::Tensor* features_view_ = nullptr;
  mutable StemSource stem_source_ = StemSource::kSkipped;
  std::array<std::optional<fusion::DetectionList>, core::kNumBranches>
      branches_;
  std::optional<std::vector<float>> config_losses_;
  std::size_t branch_executions_ = 0;
};

}  // namespace eco::exec
