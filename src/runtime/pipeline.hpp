// The streaming perception pipeline.
//
// Consumes a FrameStream through a worker pool sharing one (immutable,
// thread-safe) EcoFusionEngine. Each worker owns a private gate instance,
// so Algorithm 1 runs with zero cross-worker synchronisation on the hot
// path. Frames are dispatched in *control windows*: every frame in a window
// runs with the same (λ_E, λ_L); at the window boundary the optional
// controllers fold the window's aggregates into the next window's weights —
// BudgetController holds a J/frame budget through λ_E, DeadlineController
// holds a modeled-ms/frame target through λ_L, and when both run their
// weights are composed priority-ordered (compose_control_weights).
//
// Each window executes in two phases over the exec layer:
//   A) *select* — frames are grouped by sequence (so the TemporalStemCache
//      sees each sequence's frames in order) and Algorithm 1 steps 1–4 run
//      per frame against a FrameWorkspace;
//   B) *execute* — frames that selected the same configuration φ* form one
//      batch, and the BranchBatcher runs each *unique channel scan* of φ*'s
//      branches across the whole batch (a channel shared by several
//      branches is scanned once per frame; see exec/channel_scan_cache.hpp)
//      before per-frame merge/fusion/loss/accounting.
// Both phases are pure optimizations: results are bitwise identical with
// caching, batching and channel-scan sharing on or off, and with any worker
// count (the scan counters' unique/requested split is the one field that
// legitimately moves with the sharing toggle).
//
// Windows are dispatched through per-window dependency tracking, not
// pool-wide barriers (PR 8): each in-flight window owns two completion
// events — select_done (every phase-A lane finished; the last lane forms
// the phase-B groups and submits them as a continuation) and window_done
// (every frame finished). The driver only ever blocks on those events at
// the stream-order commit point, so with no controller configured, window
// W+1's phase A overlaps window W's phase B (two windows in flight over
// ping-ponged slot sets). With a budget/deadline controller the depth
// drops to 1 — λ(W+1) genuinely depends on window W's fold — but even
// then the stream pull of W+1 overlaps W's execution and the two
// pool-wide barriers per window are gone. PipelineConfig::pipeline_windows
// = false forces depth 1; the slot topology does NOT change with the
// toggle (see stem_cache_sequences note), so reports stay bitwise
// identical across it.
//
// The pipeline can run on a pool it owns (run/2) or as one client of a
// shared pool (run/3): the sharded front-end (runtime/shard.hpp) drives one
// pipeline per engine shard over the same pool, each waiting on its own
// per-window events so one shard's window commit never stalls another
// shard.
//
// Determinism contract: aggregate results — per-frame selections, losses,
// energies, modeled latencies, the λ_E/λ_L traces, the per-scene breakdown,
// mAP, and the exec counters — are a pure function of (engine, stream
// config, pipeline config, gate factory). The worker count (and pool
// sharing) changes only wall-clock throughput. This holds because (a)
// stream order is timing-independent, (b) per-frame work is independent
// given the window weights, (c) weights only change at window barriers from
// window aggregates accumulated in stream order (the deadline loop observes
// *modeled* latency, never wall-clock), (d) final reduction runs in stream
// order on one thread, and (e) stem cache hits depend only on sequence
// grouping, which is fixed by the stream order — window W+1's phase A is
// chained behind window W's select_done event, so per-sequence cache
// refreshes stay sequential and retain() arguments are pure stream-order
// functions even when windows overlap. Wall-clock fields
// (wall_seconds, frames_per_second, FrameStats::wall_ms, mean_wall_ms) are
// explicitly outside the contract. tests/runtime_test.cpp and
// tests/shard_test.cpp pin the contract bitwise.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "eval/map_metric.hpp"
#include "exec/workspace.hpp"
#include "gating/gate.hpp"
#include "obs/metrics.hpp"
#include "runtime/budget.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"

namespace eco::runtime {

/// Builds one gate instance. Called once per worker; every instance must be
/// behaviourally identical (same weights/table) for the determinism
/// contract to hold across worker counts.
using GateFactory = std::function<std::unique_ptr<gating::Gate>()>;

/// Pipeline parameters.
struct PipelineConfig {
  /// Worker threads running Algorithm 1 (pool size when the pipeline owns
  /// its pool; ignored when running on a caller-supplied shared pool).
  std::size_t workers = 1;
  /// γ and the initial λ_E/λ_L (the λs float when controllers are set).
  core::JointOptParams joint;
  /// Frames per control window (controller update granularity).
  std::size_t window = 16;
  /// When set, λ_E is adapted online to hold the energy budget.
  std::optional<BudgetConfig> budget;
  /// When set, λ_L is adapted online to hold the frame deadline (modeled
  /// PX2 ms/frame, so the loop is deterministic and machine-independent).
  std::optional<DeadlineConfig> deadline;
  /// Who yields when both controllers oversubscribe the scoring weight.
  ControlPriority priority = ControlPriority::kDeadlineFirst;
  /// Keep per-frame detections + ground truth for mAP — and, in the
  /// report, for downstream aggregation such as the sharded merge (costs
  /// memory proportional to the stream; disable for unbounded streams).
  bool keep_frame_results = true;
  /// Reuse/delta-refresh stem features across frames of one sequence
  /// (bitwise-invisible; see exec/stem_cache.hpp).
  bool temporal_stem_cache = true;
  /// Batch branch execution across a window's frames that selected the
  /// same configuration (bitwise-invisible; see exec/batcher.hpp).
  bool batch_branches = true;
  /// Share channel scans across branches within a frame (bitwise-invisible;
  /// see exec/channel_scan_cache.hpp). Off = every branch re-scans its own
  /// channels — the verification path the CI bench smoke pins against.
  bool share_channel_scans = true;
  /// Minimum sequence entries the temporal stem cache may hold. The
  /// pipeline sizes the cache to at least 2×window and prunes it
  /// deterministically at every window barrier, so hit/miss counters stay
  /// worker-count invariant for any value here.
  std::size_t stem_cache_sequences = 64;
  /// Emit obs:: spans for every pipeline stage (requires an installed
  /// obs::Tracer; the bench traces one repetition). Spans only observe
  /// — reports are bitwise identical with tracing on or off, and with it
  /// off every instrumentation site costs one predicted branch.
  bool tracing = false;
  /// Shard lane label for spans and the report's control slice
  /// (observability only; the sharded front-end stamps it per shard).
  std::size_t shard_index = 0;
  /// Allow idle pool workers to steal queued tasks from busy workers'
  /// deques (pools the pipeline creates; a caller-supplied pool keeps its
  /// own setting). Scheduling only — reports are bitwise identical either
  /// way.
  bool steal = true;
  /// Overlap window W+1's phase A with window W's phase B when no
  /// controller creates a cross-window λ dependency. Scheduling only —
  /// reports are bitwise identical either way (slot topology is fixed at
  /// two ping-ponged sets regardless).
  bool pipeline_windows = true;
};

/// Per-frame accounting record (stream order).
struct FrameStats {
  std::size_t stream_index = 0;
  dataset::SceneType scene = dataset::SceneType::kCity;
  std::size_t config_index = 0;
  float loss = 0.0f;
  double energy_j = 0.0;
  /// Modeled PX2 latency of the frame's pass (deterministic; used by every
  /// latency aggregate and by the deadline loop).
  double latency_ms = 0.0;
  /// Measured wall-clock execution time attributed to this frame (phase-B
  /// share). Observability only — NOT covered by determinism.
  double wall_ms = 0.0;
  float lambda_energy = 0.0f;   // λ_E in force for this frame
  float lambda_latency = 0.0f;  // λ_L in force for this frame
  std::size_t detections = 0;
  /// How this frame's stem features were obtained.
  exec::StemSource stem_source = exec::StemSource::kSkipped;
  /// Size of the phase-B execution group this frame ran in (1 = alone).
  std::size_t batch_size = 1;
  /// Branch executions attributed to this frame (reuse is free).
  std::size_t branch_runs = 0;
  /// Channel scans the frame's branches consumed (one per branch input
  /// channel) and the subset actually executed. Identical when scan
  /// sharing is off; unique < requested whenever branches overlapped on a
  /// channel (e.g. ensemble configurations: 7 requested, 4 unique).
  std::size_t channel_scans_requested = 0;
  std::size_t channel_scans_unique = 0;
  /// Tensor-buffer heap allocations attributed to this frame's execution
  /// (tensor::tensor_alloc_count deltas over the frame's selection,
  /// batched-scan and execution stretches). Frames through a warmed slot
  /// arena report 0 — the first window through each slot set pays the
  /// warm-up. The pipeline keeps two ping-ponged slot sets (window index
  /// parity) so pipelined windows never share live slots; the first TWO
  /// windows per shard are therefore the warm-up stretch, independent of
  /// every scheduling toggle.
  /// Deterministic for a fixed shard count; warm-up attribution shifts with
  /// shard count (different slot histories), so it is intentionally not
  /// part of the cross-shard invariance comparisons.
  std::size_t tensor_allocs = 0;
  /// Process-wide scan-plan cache lookups attributed to this frame's
  /// execution (thread-local tensor::plan_cache counter deltas over the
  /// same stretches as tensor_allocs). Which frame pays a miss depends on
  /// scheduling, so — like tensor_allocs — these stay out of the bitwise
  /// cross-shard comparisons; plan_cache_test's
  /// PlanCacheTest.ThreadLocalCountersTrackHitsAndMisses pins the counters.
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  /// Reusable buffer capacity the frame's slot arena retained at frame
  /// completion (tensor pool high water + scan scratch buffers).
  std::size_t arena_bytes_high_water = 0;
};

/// Execution-layer counters for one run (all deterministic).
struct ExecCounters {
  std::size_t stems_skipped = 0;     // no gate pulled F for the frame
  std::size_t stems_computed = 0;    // F computed without a temporal cache
  std::size_t stem_cache_hits = 0;   // F resolved against cached sequence state
  std::size_t stem_cache_misses = 0; // F recomputed + stored (new sequence)
  std::size_t branch_runs = 0;       // total branch executions
  std::size_t channel_scans_requested = 0;  // channel scans consumed
  std::size_t channel_scans_unique = 0;     // channel scans executed
  std::size_t batches = 0;           // phase-B execution groups
  std::size_t batched_frames = 0;    // frames in groups of size > 1
  std::size_t max_batch = 0;         // largest group
  double mean_batch = 0.0;           // frames / batches
  std::size_t tensor_allocs = 0;     // sum of per-frame tensor allocations
  std::size_t plan_cache_hits = 0;   // scan-plan cache hits across frames
  std::size_t plan_cache_misses = 0; // scan-plan cache builds across frames
  std::size_t arena_bytes_high_water = 0;  // max per-frame arena footprint
  /// Frames that executed with zero tensor heap allocations. Steady state
  /// is every frame past its slot's warm-up window, so this must cover all
  /// but (at most) the first two windows per shard (one per ping-ponged
  /// slot set); arena_test's
  /// PipelineArenaTest.SteadyStateFramesReportZeroAllocs pins it.
  std::size_t zero_alloc_frames = 0;
};

/// Aggregates for one scene type.
struct SceneReport {
  dataset::SceneType scene = dataset::SceneType::kCity;
  std::size_t frames = 0;
  double mean_loss = 0.0;
  double mean_energy_j = 0.0;
  double mean_latency_ms = 0.0;
  double map = 0.0;  // 0 when keep_frame_results is off
  std::size_t stem_cache_hits = 0;
  std::size_t stem_cache_misses = 0;
  double mean_batch = 0.0;  // mean phase-B group size of this scene's frames
};

/// One contributing pipeline's per-window control trajectory. A single
/// unsharded run reports exactly one slice (its own λ traces under its
/// configured shard_index); the sharded merge concatenates the per-shard
/// slices in shard order — closing the old telemetry gap where merged
/// reports dropped the traces entirely. Slices are per-shard state: with
/// controllers active they legitimately differ across shard counts, so
/// they are carried, not folded into the cross-shard invariants.
struct ControlSlice {
  std::size_t shard_index = 0;
  std::size_t frames = 0;
  std::vector<float> lambda_trace;    // λ_E per control window
  std::vector<float> deadline_trace;  // λ_L per control window
  float final_lambda = 0.0f;
  float final_lambda_latency = 0.0f;
};

/// Full pipeline run report.
struct PipelineReport {
  std::size_t frames = 0;
  double total_energy_j = 0.0;
  double mean_energy_j = 0.0;
  double mean_latency_ms = 0.0;  // modeled (deterministic)
  double mean_loss = 0.0;
  double map = 0.0;
  std::size_t total_detections = 0;
  float final_lambda = 0.0f;          // λ_E after the last window
  float final_lambda_latency = 0.0f;  // λ_L after the last window
  ExecCounters exec;                   // cache/batch observability
  std::vector<float> lambda_trace;     // λ_E per control window
  std::vector<float> deadline_trace;   // λ_L per control window
  /// Per-shard λ trajectories: one slice per contributing pipeline. A
  /// plain run holds its own single slice; the sharded merge carries every
  /// shard's slice (previously dropped there — see runtime/shard.hpp).
  std::vector<ControlSlice> control_slices;
  std::vector<SceneReport> per_scene;  // scenes present, enum order
  std::vector<FrameStats> frame_stats; // stream order
  /// Per-frame detections + ground truth, aligned with frame_stats
  /// (retained when keep_frame_results; consumed by the sharded merge).
  std::vector<eval::FrameResult> frame_results;
  /// Scheduler observability (steals, queue/barrier waits, pipelined
  /// windows; see runtime/thread_pool.hpp). Like the wall-clock fields,
  /// NOT covered by the determinism contract — scheduling is timing-
  /// dependent even though the reduced results are not. run/2 fills the
  /// pool-side counters from its owned pool; run/3 fills only the
  /// driver-side fields (barrier_wait_ns, windows_pipelined) because a
  /// shared pool's counters span all of its clients.
  SchedulerStats scheduler;
  // Wall-clock measurements; NOT covered by the determinism contract.
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
  double mean_wall_ms = 0.0;  // mean per-frame phase-B wall attribution
};

/// Recomputes every derived aggregate of `report` from report.frame_stats
/// (plus report.frame_results when present): totals, means, the per-scene
/// table, per-frame exec counters, and mAP. Inputs the caller must have
/// set: frame_stats (stream order), frame_results (aligned or empty),
/// exec.batches and exec.max_batch (group-level counters that are not
/// derivable per frame). Reduction runs in frame_stats order with exact
/// sums, so any caller assembling the same per-frame records — one
/// pipeline, or a sharded merge — obtains bitwise-identical aggregates.
void finalize_report(PipelineReport& report);

/// Derives a metrics registry from a finished report's per-frame records
/// (stream order, single-threaded — trivially deterministic). Histograms:
/// "modeled/latency_ms", "modeled/batch_size", "modeled/scan_dedup_ratio"
/// (covered by the determinism contract: invariant to worker count, and
/// merging per-shard registries equals collecting from the merged report)
/// and "obs/wall_ms" (wall-clock, observability only). Plus the exec
/// counters and the report's headline gauges.
[[nodiscard]] obs::MetricsRegistry collect_run_metrics(
    const PipelineReport& report);

/// Runs the adaptive engine over a frame stream with a worker pool.
class StreamingPipeline {
 public:
  StreamingPipeline(const core::EcoFusionEngine& engine,
                    PipelineConfig config);

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Drains `stream` to exhaustion on a pool owned by this call. Blocking;
  /// returns the final report.
  [[nodiscard]] PipelineReport run(FrameStream& stream,
                                   const GateFactory& make_gate) const;

  /// Same, on a caller-supplied pool shared with other clients. All work is
  /// tagged with a private TaskGroup, so concurrent pipelines on one pool
  /// interleave without stalling each other's window barriers.
  [[nodiscard]] PipelineReport run(FrameStream& stream,
                                   const GateFactory& make_gate,
                                   ThreadPool& pool) const;

 private:
  const core::EcoFusionEngine& engine_;
  PipelineConfig config_;
};

}  // namespace eco::runtime
