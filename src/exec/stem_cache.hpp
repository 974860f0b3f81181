// Temporal stem-feature cache.
//
// Consecutive frames of a kinematic sequence differ only where objects
// moved, phantoms churned, or noise landed — and the stem stack
// (3x3 conv → ReLU → 2x2 maxpool) is strictly local, so a feature row can
// only change when an input row within its receptive field changed. The
// cache keeps each sequence's last frame (grids + per-sensor features),
// diffs the incoming frame against it row-by-row, and recomputes only the
// pooled feature rows the dirty input rows can reach via
// StemBank::refresh_feature_rows. Unchanged rows are copied from the cached
// features. Because the refresh path computes a pooled row exactly as a
// full stem pass does (see tensor::conv3x3_relu_pool_rows), a
// delta-refreshed F is bitwise equal to StemBank::gate_features(frame) —
// caching is invisible in results, which is what lets the streaming
// pipeline keep its determinism contract with the cache on or off. When a
// sequence is unknown (first frame, or evicted) the cache falls back to an
// exact full recompute.
//
// What it saves in practice: on a stream with the configuration of the
// benchmark's attention_budget_stream (seed 1, 2,048 frames) — the only
// benchmark workload whose gate pulls F — the cache records 1,920 hits,
// 184,320 refreshed rows (= 1,920 × 4 sensors × 24 rows) and 0 reused
// sensor maps. Every frame redraws dense sensor noise on every row, so
// every hit refreshes every row and the cache saves no stem work; it only
// adds the row diff and the copies.
//
// Thread safety: lookups/stores lock a mutex; feature computation happens
// outside the lock. Entries are shared_ptr so an eviction never invalidates
// a concurrent reader. Distinct sequences never contend on entry state.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/stems.hpp"
#include "dataset/generator.hpp"
#include "tensor/tensor.hpp"

namespace eco::exec {

/// Cache sizing.
struct StemCacheConfig {
  /// Retained sequence entries (FIFO eviction). The streaming pipeline has
  /// one live sequence per scene lane, so the default never evicts a live
  /// entry there.
  std::size_t max_sequences = 64;
};

/// Cumulative cache behaviour counters (monotonic).
struct StemCacheCounters {
  std::uint64_t hits = 0;             // frame resolved against a cached frame
  std::uint64_t misses = 0;           // full recompute (unknown sequence)
  std::uint64_t refreshed_rows = 0;   // pooled rows recomputed on hits
  std::uint64_t reused_sensor_maps = 0;  // sensor maps reused without recompute
};

class TemporalStemCache {
 public:
  explicit TemporalStemCache(const core::StemBank& stems,
                             StemCacheConfig config = {});

  /// Gate features F for `frame` of sequence `sequence_id`; bitwise equal
  /// to stems().gate_features(frame). `hit`, when non-null, reports whether
  /// the frame resolved against cached sequence state.
  [[nodiscard]] tensor::Tensor gate_features(std::uint64_t sequence_id,
                                             const dataset::Frame& frame,
                                             bool* hit = nullptr);

  /// Drops every entry whose sequence id is not in `live`. The streaming
  /// pipeline calls this at each window barrier (single-threaded, slot
  /// order) so eviction is a deterministic function of the stream — the
  /// FIFO capacity bound then only backstops non-pipeline callers, whose
  /// insertion order (and therefore eviction order) may be timing
  /// dependent.
  void retain(const std::vector<std::uint64_t>& live);

  [[nodiscard]] const core::StemBank& stems() const noexcept { return stems_; }
  [[nodiscard]] StemCacheCounters counters() const;

 private:
  struct Entry {
    std::array<tensor::Tensor, dataset::kNumSensors> grids;
    std::array<tensor::Tensor, dataset::kNumSensors> features;
  };

  const core::StemBank& stems_;
  StemCacheConfig config_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Entry>> entries_;
  std::deque<std::uint64_t> insertion_order_;  // FIFO eviction
  StemCacheCounters counters_;
};

}  // namespace eco::exec
