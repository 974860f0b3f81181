#include "exec/workspace.hpp"

#include "core/engine.hpp"
#include "detect/losses.hpp"
#include "exec/stem_cache.hpp"
#include "obs/trace.hpp"

namespace eco::exec {

FrameWorkspace::FrameWorkspace(const core::EcoFusionEngine& engine,
                               const dataset::Frame& frame,
                               bool share_channel_scans, FrameArena* arena)
    : engine_(engine),
      frame_(frame),
      arena_(arena != nullptr ? arena : &owned_arena_),
      scans_(engine, frame, share_channel_scans, arena_->scan) {
  arena_->begin_frame();
}

FrameWorkspace::FrameWorkspace(const core::EcoFusionEngine& engine,
                               const dataset::Frame& frame,
                               TemporalStemCache* cache,
                               std::uint64_t sequence_id,
                               bool share_channel_scans, FrameArena* arena)
    : engine_(engine),
      frame_(frame),
      arena_(arena != nullptr ? arena : &owned_arena_),
      scans_(engine, frame, share_channel_scans, arena_->scan),
      stem_cache_(cache),
      sequence_id_(sequence_id) {
  arena_->begin_frame();
}

const tensor::Tensor& FrameWorkspace::gate_features() const {
  if (features_view_ != nullptr) return *features_view_;
  if (!features_) {
    // Span covers the actual stem resolution only (memoized re-reads above
    // return before it); restaged to a cache-hit span when the temporal
    // cache resolved F without a full recompute.
    obs::Span span(obs::Stage::kStemCompute);
    span.arg(static_cast<double>(sequence_id_));
    if (stem_cache_ != nullptr) {
      bool hit = false;
      features_ = stem_cache_->gate_features(sequence_id_, frame_, &hit);
      stem_source_ = hit ? StemSource::kCacheHit : StemSource::kCacheMiss;
      if (hit) span.restage(obs::Stage::kStemCacheHit);
    } else {
      // Direct stem pass: compute into the frame arena (bitwise equal to
      // StemBank::gate_features) and keep a view — the arena outlives the
      // workspace, and its slots are only recycled at the next frame.
      features_view_ =
          &engine_.stems().gate_features_into(frame_, arena_->tensors);
      stem_source_ = StemSource::kComputed;
      return *features_view_;
    }
  }
  return *features_;
}

const fusion::DetectionList& FrameWorkspace::branch_detections(
    core::BranchId branch) {
  auto& slot = branches_[static_cast<std::size_t>(branch)];
  if (!slot) {
    // Materialize the branch from its per-channel scans (any scan an
    // earlier branch already pulled is reused) and the branch's own merge. Identical arithmetic to
    // engine().run_branch, per the detector's scan decomposition contract.
    const detect::BranchDetector& detector = engine_.branch_detector(branch);
    const std::size_t channels = detector.config().input_count;
    std::vector<std::vector<detect::Detection>> per_channel;
    per_channel.reserve(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      per_channel.push_back(scans_.scan(branch, c));
    }
    slot = detector.merge_channel_scans(std::move(per_channel));
    ++branch_executions_;
  }
  return *slot;
}

const std::vector<float>& FrameWorkspace::config_losses() {
  if (!config_losses_) {
    // Execute every branch referenced by Φ exactly once, then fuse and
    // score per configuration — the same loop the engine ran before the
    // workspace existed, so the losses are bitwise unchanged.
    std::vector<float> losses;
    losses.reserve(engine_.config_space().size());
    for (const core::ModelConfig& config : engine_.config_space()) {
      std::vector<const fusion::DetectionList*> per_branch;
      per_branch.reserve(config.branches.size());
      for (core::BranchId branch : config.branches) {
        per_branch.push_back(&branch_detections(branch));
      }
      const std::vector<detect::Detection> fused =
          engine_.fusion().fuse_views(per_branch);
      losses.push_back(
          detect::detection_loss(fused, frame_.objects, engine_.config().loss)
              .total());
    }
    config_losses_ = std::move(losses);
  }
  return *config_losses_;
}

}  // namespace eco::exec
