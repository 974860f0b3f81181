// Sharded multi-engine streaming front-end.
//
// A ShardedPipeline partitions a stream's sequences across N engine shards
// with the deterministic shard_of() hash (runtime/stream.hpp). Each shard
// is a full vertical slice of the runtime: its own EcoFusionEngine, its
// own StreamingPipeline with window slots (one arena per slot) and
// closed-loop λ_E/λ_L controllers — all driving frames, one pool task per
// frame, through ONE shared work-stealing worker pool. A shard's window
// boundaries wait on its private per-window completion events, so shards
// interleave freely on the pool: while one shard's driver folds a finished
// window, the other shards' frame tasks keep the workers fed (and idle
// workers steal across shards). A frame task that throws ends its shard's
// run with that exception; the other shards finish, and run() rethrows the
// lowest-numbered failed shard's error after every driver joined.
//
// The per-shard reports are merged into a single PipelineReport that is
// *bitwise identical for any shard count and worker count* whenever the
// per-frame records are themselves shard-invariant — i.e. whenever the
// scoring weights are fixed (no closed-loop controllers), because then a
// frame's outcome is a pure function of the frame. The merge restores the
// global stream order from the per-frame stream indices (shard streams
// carry global indices), re-runs the exact same stream-order reduction the
// single pipeline uses (finalize_report), and keeps the scene table in
// enum order — so loss, energy, modeled latency, mAP, detections, the
// per-scene table, the stem counters and the channel-scan counters
// (requested/unique, summed from the per-frame records) all match the
// 1-shard run exactly.
//
// Two report families are intentionally *not* merged into that invariant:
//   * control traces (λ_E/λ_L per window) — each shard holds its own
//     budget/deadline loop over its own sub-stream, so traces are
//     per-shard state; the merge preserves them verbatim in ShardSlice AND
//     as per-shard ControlSlices on the merged report itself.
//     With controllers active, per-frame λs (and thus selections) may
//     legitimately differ across shard counts; determinism across *worker*
//     counts holds for every fixed shard count.
//   * scheduler counters (PipelineReport::scheduler) — steals, parks and
//     wait times are timing-dependent by definition, exactly like
//     wall_seconds. The merge reports the shared pool's totals plus the
//     summed driver-side fields; no invariant covers them.
// tests/shard_test.cpp pins all of the above.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "gating/gate.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stream.hpp"

namespace eco::runtime {

/// Builds one gate instance bound to one shard's engine. Invoked
/// concurrently from the shard drivers — implementations must be
/// thread-safe (pure construction from immutable inputs is).
using ShardGateFactory = std::function<std::unique_ptr<gating::Gate>(
    const core::EcoFusionEngine& engine)>;

/// Sharded-runtime parameters.
struct ShardedConfig {
  /// Engine shards. Each shard owns one engine instance; sequences are
  /// routed by shard_of(sequence_id, shards).
  std::size_t shards = 1;
  /// Per-shard pipeline parameters. `pipeline.workers` sizes the SHARED
  /// pool (total worker threads across all shards, not per shard);
  /// controllers/windows apply per shard.
  PipelineConfig pipeline;
  /// Configuration for every shard engine (engines are deterministic
  /// functions of this, so all shards behave identically).
  core::EngineConfig engine;
};

/// One shard's control outcome, preserved verbatim by the merge.
struct ShardSlice {
  std::size_t shard_index = 0;
  std::size_t frames = 0;
  std::vector<float> lambda_trace;    // λ_E per control window
  std::vector<float> deadline_trace;  // λ_L per control window
  float final_lambda = 0.0f;
  float final_lambda_latency = 0.0f;
  ExecCounters exec;
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
};

/// Result of a sharded run: the order-restored merged report plus the
/// per-shard control slices.
struct ShardedReport {
  /// Global-stream-order merge. The flat lambda/deadline trace vectors are
  /// left empty here (a single global trace would be fiction — each shard
  /// ran its own loop), but `merged.control_slices` carries every shard's
  /// per-window λ_E/λ_L trajectory in shard order, so downstream consumers
  /// (BENCH_runtime.json, run manifests) no longer lose the control
  /// telemetry in the merge. Wall fields cover the whole sharded run.
  PipelineReport merged;
  std::vector<ShardSlice> shards;
};

/// Runs N StreamingPipelines — one per engine shard — over disjoint
/// sub-streams of one stream configuration, on one shared worker pool.
class ShardedPipeline {
 public:
  explicit ShardedPipeline(ShardedConfig config);

  [[nodiscard]] const ShardedConfig& config() const noexcept {
    return config_;
  }

  /// The shard engines (identically configured, independently owned).
  [[nodiscard]] const core::EcoFusionEngine& engine(std::size_t shard) const {
    return *engines_.at(shard);
  }

  /// Runs the sharded pipeline over `stream_config`'s stream (the config's
  /// own shard fields are overridden per shard). Blocking; spawns one
  /// driver thread per shard plus the shared pool.
  [[nodiscard]] ShardedReport run(const StreamConfig& stream_config,
                                  const ShardGateFactory& make_gate) const;

 private:
  ShardedConfig config_;
  std::vector<std::unique_ptr<core::EcoFusionEngine>> engines_;
};

}  // namespace eco::runtime
