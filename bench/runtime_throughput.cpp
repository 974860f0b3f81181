// Streaming-runtime throughput baseline: frames/sec and J/frame vs worker
// count, and vs engine-shard count, on the same mixed-scenario stream.
//
// Every row replays an identical stream (all 8 scene types interleaved,
// severity-jittered sequences). The worker sweep drives one StreamingPipeline
// with a shared engine and per-worker Knowledge gates; the shard sweep
// drives a ShardedPipeline — N engine shards over one shared pool — at a
// fixed worker count. The determinism contract means J/frame, loss, and mAP
// columns must be identical across ALL rows, including across shard counts
// (the sharded merge restores global stream order and re-runs the exact
// stream-order reduction) — only the wall-clock columns may move. Future
// PRs use this as the perf baseline: run before/after and compare frames/sec
// at equal worker and shard counts.
//
// Shard-speedup expectations are hardware-bound: shards overlap their window
// barriers and stream producers on the shared pool, so gains need at least
// as many cores as busy shards. On a single-core container the shard rows
// should sit within noise of each other (batching grows with shard count —
// a shard's window spans fewer lanes — but per-call batch savings are
// small); the CI runners' multi-core sweep is the interesting one.
//
// Besides the table, the run is written to BENCH_runtime.json (or the path
// given as the second argument) so the perf trajectory is machine-trackable
// across PRs, and a run manifest (<json stem>_manifest.json) records the
// build (git sha, compiler, flags), env toggles, run parameters, and the
// per-shard λ_E/λ_L control traces — so every row is self-describing.
//
// Observability toggles:
//   ECO_TRACE=1           trace every sweep through the obs:: span tracer
//                         and write Chrome trace_event JSON (Perfetto) to
//                         ECO_TRACE_PATH (default trace.json). The traced
//                         report must be bitwise identical to an untraced
//                         run — the bench self-gates on it either way.
//   ECO_TRACE_CAPACITY=N  span slots per thread lane (drop-counted beyond).
//   ECO_BASELINE_FPS=X    optional floor: fail if the UNTRACED 4-worker
//                         fps drops below 0.9·X (pin to the PR-5 baseline
//                         on a known machine; unset = record-only, since
//                         absolute fps is hardware-bound).
//
// Scheduler toggles (both bitwise-invariant by contract; the bench runs the
// opposite state of each at 4 workers and self-gates on the comparison):
//   ECO_STEAL=0             disable cross-worker deque stealing — every task
//                           runs on the worker whose deque received it.
//   ECO_PIPELINE_WINDOWS=0  force window depth 1: no phase-A/phase-B overlap
//                           across adjacent control windows.
//
// Build & run:
//   ./build/bench/runtime_throughput [frames_per_sequence] [json] [max_shards]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "dataset/generator.hpp"
#include "dataset/sensor_model.hpp"
#include "dataset/sequence.hpp"
#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "gating/knowledge_gate.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan_cache.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

double max_abs_delta(const eco::tensor::Tensor& a,
                     const eco::tensor::Tensor& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) -
                               static_cast<double>(b.data()[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

/// Self-gate: the simd kernels must agree bitwise with their reference
/// implementations on a sampled frame — a stem-shaped conv over every
/// sensor grid, the RPN blur, the integral image, and the vectorized
/// anchor-contrast sweep. Returns the largest absolute difference (the
/// contract demands exactly 0; the value is recorded so a violation shows
/// its magnitude). Runs under any ECO_BACKEND (the kernels are called
/// explicitly), so the reference-path CI smoke still verifies the code it
/// is not otherwise executing.
double simd_delta_vs_reference() {
  using namespace eco;
  dataset::DatasetConfig config;
  const dataset::Frame frame =
      dataset::generate_frame(dataset::SceneType::kSnow, config, 1234);
  util::Rng rng(99);
  tensor::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  tensor::Tensor weight({8, 1, 3, 3});
  tensor::Tensor bias({8});
  for (auto& v : weight.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : bias.vec()) v = rng.uniform_f(-0.1f, 0.1f);

  double worst = 0.0;
  for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
    const tensor::Tensor& grid = frame.grid(kind);
    const std::size_t h = grid.size(1), w = grid.size(2);
    const std::size_t oh = spec.out_extent(h);
    const std::size_t ow = spec.out_extent(w);
    tensor::Tensor simd({8, oh, ow}), reference({8, oh, ow});
    tensor::conv2d_rows_simd(grid, weight, bias, spec, 0, oh, simd);
    tensor::conv2d_rows_reference(grid, weight, bias, spec, 0, oh, reference);
    worst = std::max(worst, max_abs_delta(simd, reference));

    tensor::Tensor blur_simd, blur_reference;
    detect::box_blur3_into_simd(grid, blur_simd);
    detect::box_blur3_into_reference(grid, blur_reference);
    worst = std::max(worst, max_abs_delta(blur_simd, blur_reference));

    // Integral image: simd's two-pass build vs the reference single walk.
    detect::IntegralImage ref_ii, simd_ii;
    ref_ii.reset(blur_reference, tensor::Backend::kReference);
    simd_ii.reset(blur_reference, tensor::Backend::kSimd);
    const std::size_t cells = (h + 1) * (w + 1);
    for (std::size_t i = 0; i < cells; ++i) {
      worst =
          std::max(worst, std::fabs(ref_ii.table()[i] - simd_ii.table()[i]));
    }

    // Anchor scoring: the vectorized contrast sweep vs the scalar chain
    // over the full precomputed geometry of this grid shape.
    const detect::ScanPlan plan =
        detect::build_scan_plan({h, w, detect::RpnConfig{}});
    std::vector<double> simd_contrast(plan.geometry.size());
    detect::detail::anchor_contrast_pass_simd(
        ref_ii.table(), plan.geometry.data(), plan.geometry.size(),
        simd_contrast.data());
    for (std::size_t i = 0; i < plan.geometry.size(); ++i) {
      const detect::AnchorGeometry& g = plan.geometry[i];
      const double inner_sum =
          g.inner_valid
              ? ref_ii.flat_sum(g.inner00, g.inner01, g.inner10, g.inner11)
              : 0.0;
      const double ring_sum =
          g.ring_valid
              ? ref_ii.flat_sum(g.ring00, g.ring01, g.ring10, g.ring11)
              : 0.0;
      const double inside =
          g.inner_area > 0.0f ? inner_sum / g.inner_area : 0.0;
      const double ring_area = g.ring_area;
      const double background =
          ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
      worst = std::max(worst,
                       std::fabs((inside - background) - simd_contrast[i]));
    }
  }
  return worst;
}

/// Control-window size used by every sweep below; the steady-state
/// zero-alloc gate derives its warm-up cutoff from this (slot arenas warm
/// during window 0).
constexpr std::size_t kBenchWindow = 16;

/// p50/p95/p99 of one histogram, pulled from a run's metrics registry.
struct Pcts {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Pcts pcts_of(const eco::obs::MetricsRegistry& metrics, const char* name) {
  Pcts out;
  if (const eco::obs::Histogram* h = metrics.find_histogram(name)) {
    out.p50 = h->percentile(0.50);
    out.p95 = h->percentile(0.95);
    out.p99 = h->percentile(0.99);
  }
  return out;
}

struct Row {
  std::size_t workers = 0;
  double frames_per_second = 0.0;
  double speedup = 0.0;
  std::size_t channel_scans_requested = 0;
  std::size_t channel_scans_unique = 0;
  std::size_t tensor_allocs = 0;
  std::size_t arena_bytes_high_water = 0;
  Pcts modeled_latency_ms;  // deterministic: identical across rows
  Pcts obs_wall_ms;         // wall-clock, observability only
  eco::runtime::SchedulerStats sched;  // observability only, like wall-clock
};

/// Scheduler summary for the JSON block and the exit gates: the 4-worker
/// run's counters plus the toggle-invariance and scaling results.
struct SchedSummary {
  eco::runtime::SchedulerStats stats;  // 4-worker untraced sweep run
  bool steal_off_bitwise = false;    // config.steal=false report matches
  bool steal_off_no_steals = false;  // ...and recorded zero steals
  bool pipeline_off_bitwise = false;  // pipeline_windows=false report matches
  bool pipeline_off_sequential = false;  // ...and pipelined zero windows
  bool sweep_monotone = false;  // fps non-degrading up to hardware threads
  bool zero_heap = false;       // no sweep run heap-allocated a task
};

/// Ingest summary: the parallel prefetching frame source's self-gates.
/// The single-thread fast-vs-reference render measurement (the tentpole
/// speedup, pinned bitwise), the prefetch-topology bitwise invariances
/// (the stream must be a pure function of StreamConfig), and the 4-worker
/// sweep run's starvation counters.
struct IngestSummary {
  double fast_us_per_frame = 0.0;       // all 4 sensors, single thread
  double reference_us_per_frame = 0.0;  // per-cell at() render, same frames
  double speedup_vs_reference = 0.0;    // reference / fast
  bool fast_matches_reference = false;  // bitwise, every frame x sensor
  bool speedup_ok = false;          // ≥ ECO_INGEST_MIN_SPEEDUP (default 1.3)
  std::size_t prefetch_depth = 0;   // depth the sweep runs used
  std::uint64_t blocked_pops = 0;   // 4-worker run consumer starvation
  std::uint64_t blocked_ns = 0;
  std::uint64_t scratch_allocs = 0;      // RenderScratch grow events
  bool prefetch_off_bitwise = false;     // prefetch=0 run matches sweep run
  bool depth_sweep_bitwise = false;      // depths x workers all match
  bool shards_prefetch_bitwise = false;  // {1,2} shards, prefetch on/off
  [[nodiscard]] bool gates_ok() const noexcept {
    return fast_matches_reference && speedup_ok && prefetch_off_bitwise &&
           depth_sweep_bitwise && shards_prefetch_bitwise;
  }
};

/// Times the two render backends over one planned sequence (every frame,
/// all four sensors — the unit of work an ingest generation task performs)
/// and pins them bitwise identical. Single-threaded by construction: this
/// is the per-frame synthesis cost, not the pipelined throughput.
IngestSummary measure_ingest_render() {
  using namespace eco;
  IngestSummary out;
  dataset::SequenceConfig config;
  config.length = 64;
  config.seed = 31;
  const dataset::SequencePlan plan =
      dataset::plan_sequence(dataset::SceneType::kRain, config, 3);
  dataset::RenderScratch scratch;

  const auto render_all = [&](bool fast) {
    for (const dataset::FramePlan& fp : plan.frames) {
      for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
        util::Rng rng(fp.render_seeds[static_cast<std::size_t>(kind)]);
        if (fast) {
          volatile float sink =
              dataset::render_sensor_fast(kind, plan.env, fp.objects,
                                          fp.phantoms, plan.grid, rng, scratch)
                  .sum();
          (void)sink;
        } else {
          volatile float sink =
              dataset::render_sensor_reference(kind, plan.env, fp.objects,
                                               fp.phantoms, plan.grid, rng)
                  .sum();
          (void)sink;
        }
      }
    }
  };
  // Warm-up pass doubling as the bitwise self-gate.
  out.fast_matches_reference = true;
  for (const dataset::FramePlan& fp : plan.frames) {
    for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
      const std::uint64_t seed =
          fp.render_seeds[static_cast<std::size_t>(kind)];
      util::Rng fast_rng(seed), ref_rng(seed);
      const tensor::Tensor fast = dataset::render_sensor_fast(
          kind, plan.env, fp.objects, fp.phantoms, plan.grid, fast_rng,
          scratch);
      const tensor::Tensor ref = dataset::render_sensor_reference(
          kind, plan.env, fp.objects, fp.phantoms, plan.grid, ref_rng);
      out.fast_matches_reference =
          out.fast_matches_reference && fast.equals(ref);
    }
  }
  const auto time_us_per_frame = [&](bool fast) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      render_all(fast);
      const auto end = std::chrono::steady_clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(end - start).count() /
          static_cast<double>(plan.frames.size());
      if (best == 0.0 || us < best) best = us;
    }
    return best;
  };
  out.fast_us_per_frame = time_us_per_frame(true);
  out.reference_us_per_frame = time_us_per_frame(false);
  out.speedup_vs_reference =
      out.fast_us_per_frame > 0.0
          ? out.reference_us_per_frame / out.fast_us_per_frame
          : 0.0;
  const double floor = util::env_double_or("ECO_INGEST_MIN_SPEEDUP", 1.3);
  out.speedup_ok =
      floor <= 0.0 ||
      (out.fast_matches_reference && out.speedup_vs_reference >= floor);
  return out;
}

struct ShardRow {
  std::size_t shards = 0;
  double frames_per_second = 0.0;
  double speedup = 0.0;
  double mean_batch = 0.0;
  std::size_t channel_scans_requested = 0;
  std::size_t channel_scans_unique = 0;
  std::size_t tensor_allocs = 0;
  std::size_t plan_cache_hits = 0;    // process-wide scan-plan cache hits
  std::size_t plan_cache_misses = 0;  // plans built during this run
  std::size_t arena_bytes_high_water = 0;
  bool merged_invariant = false;  // J/loss/mAP bitwise equal to 1-shard row
  Pcts modeled_latency_ms;
  Pcts obs_wall_ms;
};

/// One explicit-backend run of the 4-worker pipeline: same stream, an
/// engine constructed with that backend pinned. fps is observability; the
/// bitwise flag (report equals the environment-selected sweep's report) is
/// the determinism gate.
struct BackendRow {
  eco::tensor::Backend backend = eco::tensor::Backend::kAuto;
  double frames_per_second = 0.0;
  double max_abs_delta_vs_reference = 0.0;  // kernel self-gate delta
  bool report_bitwise = false;
};

/// Tracing-overhead + trace-artifact summary, recorded in the JSON and
/// self-gated on exit.
struct ObsSummary {
  bool trace_enabled = false;       // ECO_TRACE requested a trace file
  double fps_untraced = 0.0;        // 4-worker run, tracing flag off
  double fps_traced = 0.0;          // same run, tracing flag on
  double overhead_ratio = 0.0;      // fps_untraced / fps_traced
  bool traced_invariant = false;    // traced report bitwise == untraced
  bool zero_spans_when_off = false;  // off-flag runs emitted no spans
  std::uint64_t spans = 0;
  std::uint64_t dropped_spans = 0;
  std::size_t shard_lanes = 0;
  bool trace_valid = false;  // trace_json() parses as strict JSON
  bool stages_ok = false;    // every expected stage produced spans
  std::string trace_path;    // empty when no file was written
};

/// The traced and untraced runs must agree on every field the determinism
/// contract covers: headline aggregates, exec counters, and the per-window
/// λ traces. Wall-clock fields are deliberately excluded.
bool reports_bitwise_equal(const eco::runtime::PipelineReport& a,
                           const eco::runtime::PipelineReport& b) {
  return a.frames == b.frames && a.mean_energy_j == b.mean_energy_j &&
         a.mean_latency_ms == b.mean_latency_ms &&
         a.mean_loss == b.mean_loss && a.map == b.map &&
         a.total_detections == b.total_detections &&
         a.final_lambda == b.final_lambda &&
         a.final_lambda_latency == b.final_lambda_latency &&
         a.lambda_trace == b.lambda_trace &&
         a.deadline_trace == b.deadline_trace &&
         a.exec.stems_skipped == b.exec.stems_skipped &&
         a.exec.stems_computed == b.exec.stems_computed &&
         a.exec.stem_cache_hits == b.exec.stem_cache_hits &&
         a.exec.stem_cache_misses == b.exec.stem_cache_misses &&
         a.exec.branch_runs == b.exec.branch_runs &&
         a.exec.channel_scans_requested == b.exec.channel_scans_requested &&
         a.exec.channel_scans_unique == b.exec.channel_scans_unique &&
         a.exec.batches == b.exec.batches &&
         a.exec.batched_frames == b.exec.batched_frames &&
         a.exec.max_batch == b.exec.max_batch &&
         a.exec.mean_batch == b.exec.mean_batch &&
         a.exec.tensor_allocs == b.exec.tensor_allocs &&
         a.exec.zero_alloc_frames == b.exec.zero_alloc_frames;
}

/// BENCH_runtime.json -> BENCH_runtime_manifest.json.
std::string manifest_path_for(const std::string& json_path) {
  const std::string suffix = ".json";
  if (json_path.size() > suffix.size() &&
      json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return json_path.substr(0, json_path.size() - suffix.size()) +
           "_manifest.json";
  }
  return json_path + "_manifest.json";
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void write_float_array(std::FILE* f, const std::vector<float>& values) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%.9g%s", static_cast<double>(values[i]),
                 i + 1 < values.size() ? ", " : "");
  }
  std::fputc(']', f);
}

bool write_json(const char* path, const eco::runtime::PipelineReport& report,
                std::size_t frames_per_sequence, const std::vector<Row>& rows,
                const std::vector<ShardRow>& shard_rows, bool share_enabled,
                bool share_invariant, const Pcts& modeled_p, const Pcts& wall_p,
                const std::vector<eco::runtime::ControlSlice>& control_slices,
                const ObsSummary& obs,
                const std::vector<BackendRow>& backend_rows,
                const eco::detect::ScanPlanCacheStats& plan_stats,
                bool plan_cache_ok, const SchedSummary& sched,
                const IngestSummary& ingest) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"runtime_throughput\",\n");
  std::fprintf(f, "  \"frames\": %zu,\n", report.frames);
  std::fprintf(f, "  \"frames_per_sequence\": %zu,\n", frames_per_sequence);
  std::fprintf(f, "  \"mean_energy_j\": %.6f,\n", report.mean_energy_j);
  std::fprintf(f, "  \"mean_latency_ms\": %.6f,\n", report.mean_latency_ms);
  std::fprintf(f, "  \"mean_loss\": %.6f,\n", report.mean_loss);
  std::fprintf(f, "  \"map\": %.6f,\n", report.map);
  // Modeled percentiles are deterministic (CI diffs them between traced and
  // untraced runs); obs_wall_* are wall-clock observability only and must
  // never enter a bitwise comparison.
  std::fprintf(f, "  \"modeled_latency_ms_p50\": %.6f,\n", modeled_p.p50);
  std::fprintf(f, "  \"modeled_latency_ms_p95\": %.6f,\n", modeled_p.p95);
  std::fprintf(f, "  \"modeled_latency_ms_p99\": %.6f,\n", modeled_p.p99);
  std::fprintf(f, "  \"obs_wall_ms_p50\": %.6f,\n", wall_p.p50);
  std::fprintf(f, "  \"obs_wall_ms_p95\": %.6f,\n", wall_p.p95);
  std::fprintf(f, "  \"obs_wall_ms_p99\": %.6f,\n", wall_p.p99);
  std::fprintf(f, "  \"exec\": {\n");
  std::fprintf(f, "    \"stems_skipped\": %zu,\n", report.exec.stems_skipped);
  std::fprintf(f, "    \"stems_computed\": %zu,\n", report.exec.stems_computed);
  std::fprintf(f, "    \"stem_cache_hits\": %zu,\n",
               report.exec.stem_cache_hits);
  std::fprintf(f, "    \"stem_cache_misses\": %zu,\n",
               report.exec.stem_cache_misses);
  std::fprintf(f, "    \"branch_runs\": %zu,\n", report.exec.branch_runs);
  std::fprintf(f, "    \"channel_scans_requested\": %zu,\n",
               report.exec.channel_scans_requested);
  std::fprintf(f, "    \"channel_scans_unique\": %zu,\n",
               report.exec.channel_scans_unique);
  std::fprintf(f, "    \"batches\": %zu,\n", report.exec.batches);
  std::fprintf(f, "    \"batched_frames\": %zu,\n", report.exec.batched_frames);
  std::fprintf(f, "    \"max_batch\": %zu,\n", report.exec.max_batch);
  std::fprintf(f, "    \"mean_batch\": %.4f,\n", report.exec.mean_batch);
  std::fprintf(f, "    \"tensor_allocs\": %zu,\n", report.exec.tensor_allocs);
  std::fprintf(f, "    \"plan_cache_hits\": %zu,\n",
               report.exec.plan_cache_hits);
  std::fprintf(f, "    \"plan_cache_misses\": %zu,\n",
               report.exec.plan_cache_misses);
  std::fprintf(f, "    \"arena_bytes_high_water\": %zu,\n",
               report.exec.arena_bytes_high_water);
  std::fprintf(f, "    \"zero_alloc_frames\": %zu\n",
               report.exec.zero_alloc_frames);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"channel_share_enabled\": %s,\n",
               share_enabled ? "true" : "false");
  std::fprintf(f, "  \"share_invariant\": %s,\n",
               share_invariant ? "true" : "false");
  // Per-backend runs: fps moves, everything deterministic must not. The
  // deltas are the kernel self-gate's max absolute differences against the
  // reference implementations (the contract demands exact zeros).
  std::fprintf(f, "  \"backends\": [\n");
  for (std::size_t i = 0; i < backend_rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"frames_per_second\": %.2f, "
                 "\"max_abs_delta_vs_reference\": %.9g, "
                 "\"report_bitwise\": %s}%s\n",
                 eco::tensor::backend_name(backend_rows[i].backend),
                 backend_rows[i].frames_per_second,
                 backend_rows[i].max_abs_delta_vs_reference,
                 backend_rows[i].report_bitwise ? "true" : "false",
                 i + 1 < backend_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"plan_cache\": {\"plans\": %zu, \"hits\": %zu, "
               "\"misses\": %zu, \"cross_shard_reuse_ok\": %s},\n",
               plan_stats.plans, plan_stats.hits, plan_stats.misses,
               plan_cache_ok ? "true" : "false");
  // Scheduler block: the 4-worker sweep run's counters (wall-clock-class
  // observability) plus the toggle-invariance and scaling gate results.
  std::fprintf(f, "  \"scheduler\": {\n");
  std::fprintf(f, "    \"tasks_executed\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.tasks_executed));
  std::fprintf(f, "    \"tasks_inlined\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.tasks_inlined));
  std::fprintf(f, "    \"tasks_heap\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.tasks_heap));
  std::fprintf(f, "    \"steals\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.steals));
  std::fprintf(f, "    \"steal_failures\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.steal_failures));
  std::fprintf(f, "    \"injector_submits\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.injector_submits));
  std::fprintf(f, "    \"overflow_submits\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.overflow_submits));
  std::fprintf(f, "    \"parks\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.parks));
  std::fprintf(f, "    \"queue_wait_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.queue_wait_ns));
  std::fprintf(f, "    \"barrier_wait_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.barrier_wait_ns));
  std::fprintf(f, "    \"windows_pipelined\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.windows_pipelined));
  std::fprintf(f, "    \"ingest_blocked_pops\": %llu,\n",
               static_cast<unsigned long long>(
                   sched.stats.ingest_blocked_pops));
  std::fprintf(f, "    \"ingest_blocked_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.stats.ingest_blocked_ns));
  std::fprintf(f, "    \"steal_off_bitwise\": %s,\n",
               sched.steal_off_bitwise ? "true" : "false");
  std::fprintf(f, "    \"pipeline_off_bitwise\": %s,\n",
               sched.pipeline_off_bitwise ? "true" : "false");
  std::fprintf(f, "    \"sweep_monotone\": %s,\n",
               sched.sweep_monotone ? "true" : "false");
  std::fprintf(f, "    \"zero_heap\": %s\n",
               sched.zero_heap ? "true" : "false");
  std::fprintf(f, "  },\n");
  // Ingest block: the parallel prefetching frame source. us/frame are
  // wall-clock-class (machine-dependent); the bitwise flags and the
  // fast==reference contract are the deterministic gates.
  std::fprintf(f, "  \"ingest\": {\n");
  std::fprintf(f, "    \"fast_us_per_frame\": %.2f,\n",
               ingest.fast_us_per_frame);
  std::fprintf(f, "    \"reference_us_per_frame\": %.2f,\n",
               ingest.reference_us_per_frame);
  std::fprintf(f, "    \"speedup_vs_reference\": %.4f,\n",
               ingest.speedup_vs_reference);
  std::fprintf(f, "    \"fast_matches_reference\": %s,\n",
               ingest.fast_matches_reference ? "true" : "false");
  std::fprintf(f, "    \"speedup_ok\": %s,\n",
               ingest.speedup_ok ? "true" : "false");
  std::fprintf(f, "    \"prefetch_depth\": %zu,\n", ingest.prefetch_depth);
  std::fprintf(f, "    \"blocked_pops\": %llu,\n",
               static_cast<unsigned long long>(ingest.blocked_pops));
  std::fprintf(f, "    \"blocked_ns\": %llu,\n",
               static_cast<unsigned long long>(ingest.blocked_ns));
  std::fprintf(f, "    \"render_scratch_allocs\": %llu,\n",
               static_cast<unsigned long long>(ingest.scratch_allocs));
  std::fprintf(f, "    \"prefetch_off_bitwise\": %s,\n",
               ingest.prefetch_off_bitwise ? "true" : "false");
  std::fprintf(f, "    \"depth_sweep_bitwise\": %s,\n",
               ingest.depth_sweep_bitwise ? "true" : "false");
  std::fprintf(f, "    \"shards_prefetch_bitwise\": %s\n",
               ingest.shards_prefetch_bitwise ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"workers\": %zu, \"frames_per_second\": %.2f, "
                 "\"speedup\": %.3f, \"channel_scans_requested\": %zu, "
                 "\"channel_scans_unique\": %zu, \"tensor_allocs\": %zu, "
                 "\"arena_bytes_high_water\": %zu, "
                 "\"modeled_latency_ms_p50\": %.6f, "
                 "\"modeled_latency_ms_p95\": %.6f, "
                 "\"modeled_latency_ms_p99\": %.6f, "
                 "\"obs_wall_ms_p50\": %.6f, \"obs_wall_ms_p95\": %.6f, "
                 "\"obs_wall_ms_p99\": %.6f, "
                 "\"sched_steals\": %llu, \"sched_steal_failures\": %llu, "
                 "\"sched_parks\": %llu, \"sched_queue_wait_ns\": %llu, "
                 "\"sched_barrier_wait_ns\": %llu, "
                 "\"sched_tasks_inlined\": %llu, \"sched_tasks_heap\": %llu, "
                 "\"sched_windows_pipelined\": %llu, "
                 "\"sched_ingest_blocked_pops\": %llu, "
                 "\"sched_ingest_blocked_ns\": %llu}%s\n",
                 rows[i].workers, rows[i].frames_per_second, rows[i].speedup,
                 rows[i].channel_scans_requested, rows[i].channel_scans_unique,
                 rows[i].tensor_allocs, rows[i].arena_bytes_high_water,
                 rows[i].modeled_latency_ms.p50, rows[i].modeled_latency_ms.p95,
                 rows[i].modeled_latency_ms.p99, rows[i].obs_wall_ms.p50,
                 rows[i].obs_wall_ms.p95, rows[i].obs_wall_ms.p99,
                 static_cast<unsigned long long>(rows[i].sched.steals),
                 static_cast<unsigned long long>(rows[i].sched.steal_failures),
                 static_cast<unsigned long long>(rows[i].sched.parks),
                 static_cast<unsigned long long>(rows[i].sched.queue_wait_ns),
                 static_cast<unsigned long long>(
                     rows[i].sched.barrier_wait_ns),
                 static_cast<unsigned long long>(rows[i].sched.tasks_inlined),
                 static_cast<unsigned long long>(rows[i].sched.tasks_heap),
                 static_cast<unsigned long long>(
                     rows[i].sched.windows_pipelined),
                 static_cast<unsigned long long>(
                     rows[i].sched.ingest_blocked_pops),
                 static_cast<unsigned long long>(
                     rows[i].sched.ingest_blocked_ns),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"shard_rows\": [\n");
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"shards\": %zu, \"frames_per_second\": %.2f, "
                 "\"speedup\": %.3f, \"mean_batch\": %.3f, "
                 "\"channel_scans_requested\": %zu, "
                 "\"channel_scans_unique\": %zu, "
                 "\"tensor_allocs\": %zu, "
                 "\"plan_cache_hits\": %zu, "
                 "\"plan_cache_misses\": %zu, "
                 "\"arena_bytes_high_water\": %zu, "
                 "\"merged_invariant\": %s, "
                 "\"modeled_latency_ms_p50\": %.6f, "
                 "\"modeled_latency_ms_p95\": %.6f, "
                 "\"modeled_latency_ms_p99\": %.6f, "
                 "\"obs_wall_ms_p50\": %.6f, \"obs_wall_ms_p95\": %.6f, "
                 "\"obs_wall_ms_p99\": %.6f}%s\n",
                 shard_rows[i].shards, shard_rows[i].frames_per_second,
                 shard_rows[i].speedup, shard_rows[i].mean_batch,
                 shard_rows[i].channel_scans_requested,
                 shard_rows[i].channel_scans_unique,
                 shard_rows[i].tensor_allocs,
                 shard_rows[i].plan_cache_hits,
                 shard_rows[i].plan_cache_misses,
                 shard_rows[i].arena_bytes_high_water,
                 shard_rows[i].merged_invariant ? "true" : "false",
                 shard_rows[i].modeled_latency_ms.p50,
                 shard_rows[i].modeled_latency_ms.p95,
                 shard_rows[i].modeled_latency_ms.p99,
                 shard_rows[i].obs_wall_ms.p50, shard_rows[i].obs_wall_ms.p95,
                 shard_rows[i].obs_wall_ms.p99,
                 i + 1 < shard_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Satellite of the observability PR: the merged report now carries every
  // shard's per-window λ_E/λ_L trajectory (previously dropped by the merge);
  // these slices come from the largest shard-sweep run.
  std::fprintf(f, "  \"control_slices\": [\n");
  for (std::size_t i = 0; i < control_slices.size(); ++i) {
    const eco::runtime::ControlSlice& slice = control_slices[i];
    std::fprintf(f,
                 "    {\"shard\": %zu, \"frames\": %zu, "
                 "\"final_lambda\": %.9g, \"final_lambda_latency\": %.9g, "
                 "\"lambda_trace\": ",
                 slice.shard_index, slice.frames,
                 static_cast<double>(slice.final_lambda),
                 static_cast<double>(slice.final_lambda_latency));
    write_float_array(f, slice.lambda_trace);
    std::fprintf(f, ", \"deadline_trace\": ");
    write_float_array(f, slice.deadline_trace);
    std::fprintf(f, "}%s\n", i + 1 < control_slices.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"tracing\": {\n");
  std::fprintf(f, "    \"enabled\": %s,\n",
               obs.trace_enabled ? "true" : "false");
  std::fprintf(f, "    \"fps_untraced\": %.2f,\n", obs.fps_untraced);
  std::fprintf(f, "    \"fps_traced\": %.2f,\n", obs.fps_traced);
  std::fprintf(f, "    \"overhead_ratio\": %.4f,\n", obs.overhead_ratio);
  std::fprintf(f, "    \"traced_invariant\": %s,\n",
               obs.traced_invariant ? "true" : "false");
  std::fprintf(f, "    \"zero_spans_when_off\": %s,\n",
               obs.zero_spans_when_off ? "true" : "false");
  std::fprintf(f, "    \"spans\": %llu,\n",
               static_cast<unsigned long long>(obs.spans));
  std::fprintf(f, "    \"dropped_spans\": %llu,\n",
               static_cast<unsigned long long>(obs.dropped_spans));
  std::fprintf(f, "    \"shard_lanes\": %zu,\n", obs.shard_lanes);
  std::fprintf(f, "    \"trace_valid\": %s,\n",
               obs.trace_valid ? "true" : "false");
  std::fprintf(f, "    \"stages_ok\": %s,\n", obs.stages_ok ? "true" : "false");
  std::fprintf(f, "    \"trace_path\": \"%s\"\n",
               eco::obs::json_escape(obs.trace_path).c_str());
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("Wrote %s\n", path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eco;

  std::size_t frames_per_sequence = 16;
  if (argc > 1) {
    frames_per_sequence = std::strtoul(argv[1], nullptr, 10);
    if (frames_per_sequence == 0) {
      std::fprintf(stderr,
                   "usage: runtime_throughput [frames_per_sequence >= 1] "
                   "[json_path] [max_shards]\n");
      return 2;
    }
  }
  const char* json_path = argc > 2 ? argv[2] : "BENCH_runtime.json";
  std::size_t max_shards = 4;
  if (argc > 3) {
    max_shards = std::strtoul(argv[3], nullptr, 10);
    if (max_shards == 0) max_shards = 1;
  }

  // The tracer is installed for the whole run in BOTH trace modes; with
  // ECO_TRACE unset every PipelineConfig keeps tracing=false, so no worker
  // ever activates a lane — which lets the exit gates prove the off path
  // emits zero spans even with a live tracer installed.
  const bool trace_enabled = obs::trace_env_enabled();
  obs::TraceConfig trace_config;
  trace_config.ring_capacity = util::env_size_or("ECO_TRACE_CAPACITY",
                                                 trace_config.ring_capacity);
  obs::Tracer tracer(trace_config);
  tracer.install();

  const core::EcoFusionEngine engine;
  const runtime::GateFactory gate_factory = [&engine] {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  };
  const runtime::ShardGateFactory shard_gate_factory =
      [](const core::EcoFusionEngine& shard_engine) {
        return std::make_unique<gating::KnowledgeGate>(
            shard_engine.default_knowledge_table(),
            shard_engine.config_space().size());
      };

  runtime::StreamConfig stream_config;
  stream_config.sequence.length = frames_per_sequence;
  stream_config.sequences_per_scene = 2;
  stream_config.seed = 7102;

  // ECO_CHANNEL_SHARE=0 runs every sweep with cross-branch channel-scan
  // sharing disabled (the CI smoke uses it to exercise the unshared path;
  // the invariance check below always compares both paths regardless).
  const bool share_enabled = !util::env_disabled("ECO_CHANNEL_SHARE");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("Streaming-runtime throughput (hardware threads: %u)\n", hw);
  std::printf("Channel-scan sharing: %s\n",
              share_enabled ? "enabled" : "DISABLED (ECO_CHANNEL_SHARE=0)");
  std::printf("Span tracing: %s\n",
              trace_enabled ? "ENABLED (ECO_TRACE=1)" : "off");
  std::printf("Stream: 8 scene lanes x %zu sequences x %zu frames = %zu frames\n\n",
              stream_config.sequences_per_scene, frames_per_sequence,
              8 * stream_config.sequences_per_scene * frames_per_sequence);

  util::Table table({"Workers", "Frames/s", "Speedup", "J/frame",
                     "Model ms/frame", "Mean loss", "mAP (%)", "Scans u/r"});
  std::vector<Row> rows;
  runtime::PipelineReport last_report;
  runtime::PipelineReport four_worker_report;  // reused by the sharing gate
  double base_fps = 0.0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    runtime::PipelineConfig config;
    config.workers = workers;
    config.window = kBenchWindow;
    config.share_channel_scans = share_enabled;
    config.tracing = trace_enabled;
    runtime::StreamingPipeline pipeline(engine, config);
    runtime::FrameStream stream(stream_config);
    runtime::PipelineReport report = pipeline.run(stream, gate_factory);
    if (base_fps == 0.0) base_fps = report.frames_per_second;
    const obs::MetricsRegistry metrics = runtime::collect_run_metrics(report);
    table.add_row({std::to_string(workers),
                   util::fmt(report.frames_per_second, 1),
                   util::fmt(report.frames_per_second / base_fps, 2) + "x",
                   util::fmt(report.mean_energy_j),
                   util::fmt(report.mean_latency_ms, 2),
                   util::fmt(report.mean_loss),
                   util::fmt_pct(report.map),
                   std::to_string(report.exec.channel_scans_unique) + "/" +
                       std::to_string(report.exec.channel_scans_requested)});
    rows.push_back({workers, report.frames_per_second,
                    report.frames_per_second / base_fps,
                    report.exec.channel_scans_requested,
                    report.exec.channel_scans_unique,
                    report.exec.tensor_allocs,
                    report.exec.arena_bytes_high_water,
                    pcts_of(metrics, "modeled/latency_ms"),
                    pcts_of(metrics, "obs/wall_ms"),
                    report.scheduler});
    if (workers == 4) four_worker_report = report;
    last_report = std::move(report);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Modeled latency percentiles (deterministic): p50 %.3f / "
              "p95 %.3f / p99 %.3f ms; wall p95 %.3f ms (obs only).\n\n",
              rows.back().modeled_latency_ms.p50,
              rows.back().modeled_latency_ms.p95,
              rows.back().modeled_latency_ms.p99, rows.back().obs_wall_ms.p95);

  // ---- Scheduler counters per sweep row ---------------------------------
  // All observability (wall-clock-class): steals and waits move with the
  // machine; the determinism contract deliberately excludes them. The
  // inlined/heap split is the exception — steady-state submissions must
  // never heap-allocate, gated below.
  util::Table sched_table({"Workers", "Tasks", "Inlined", "Heap", "Steals",
                           "Steal fails", "Parks", "Queue wait ms",
                           "Barrier wait ms", "Windows pipelined",
                           "Ingest wait ms"});
  for (const Row& row : rows) {
    sched_table.add_row(
        {std::to_string(row.workers),
         std::to_string(row.sched.tasks_executed),
         std::to_string(row.sched.tasks_inlined),
         std::to_string(row.sched.tasks_heap),
         std::to_string(row.sched.steals),
         std::to_string(row.sched.steal_failures),
         std::to_string(row.sched.parks),
         util::fmt(static_cast<double>(row.sched.queue_wait_ns) / 1e6, 2),
         util::fmt(static_cast<double>(row.sched.barrier_wait_ns) / 1e6, 2),
         std::to_string(row.sched.windows_pipelined),
         util::fmt(static_cast<double>(row.sched.ingest_blocked_ns) / 1e6,
                   2)});
  }
  std::printf("Work-stealing scheduler (per worker-sweep row):\n%s\n",
              sched_table.render().c_str());

  // ---- Channel-scan sharing invariance gate -----------------------------
  // One run per toggle state on the identical stream: everything except the
  // unique-scan count must match bitwise (the dedup must be invisible in
  // results), and on this ensemble-bearing stream sharing must actually
  // dedup (unique < requested). Runs regardless of ECO_CHANNEL_SHARE so the
  // disabled smoke still verifies divergence against the shared path. The
  // sweep's 4-worker run already covers the env's toggle state (reports are
  // deterministic), so only the opposite state runs here.
  bool share_invariant = true;
  {
    auto run_once = [&](bool share) {
      runtime::PipelineConfig config;
      config.workers = 4;
      config.window = kBenchWindow;
      config.share_channel_scans = share;
      config.tracing = trace_enabled;
      runtime::StreamingPipeline pipeline(engine, config);
      runtime::FrameStream stream(stream_config);
      return pipeline.run(stream, gate_factory);
    };
    const runtime::PipelineReport shared =
        share_enabled ? four_worker_report : run_once(true);
    const runtime::PipelineReport unshared =
        share_enabled ? run_once(false) : four_worker_report;
    share_invariant =
        shared.mean_energy_j == unshared.mean_energy_j &&
        shared.mean_latency_ms == unshared.mean_latency_ms &&
        shared.mean_loss == unshared.mean_loss &&
        shared.map == unshared.map &&
        shared.total_detections == unshared.total_detections &&
        shared.exec.branch_runs == unshared.exec.branch_runs &&
        shared.exec.channel_scans_requested ==
            unshared.exec.channel_scans_requested &&
        shared.exec.channel_scans_unique <
            shared.exec.channel_scans_requested &&
        unshared.exec.channel_scans_unique ==
            unshared.exec.channel_scans_requested;
    std::printf("Channel-scan sharing: %zu/%zu unique/requested scans "
                "(%.2fx dedup); unshared path %s bitwise.\n\n",
                shared.exec.channel_scans_unique,
                shared.exec.channel_scans_requested,
                shared.exec.channel_scans_unique > 0
                    ? static_cast<double>(shared.exec.channel_scans_requested) /
                          static_cast<double>(shared.exec.channel_scans_unique)
                    : 0.0,
                share_invariant ? "matches" : "DIVERGES FROM");
  }

  // ---- Scheduler toggle + scaling gates ---------------------------------
  // One 4-worker run per disabled scheduler feature on the identical
  // stream: stealing off (every task stays on the worker that received it)
  // and window pipelining off (depth 1, the pre-overlap barrier schedule).
  // Both must reproduce the sweep's 4-worker report bitwise — the scheduler
  // is a pure wall-clock knob. The sweep rows themselves gate two more
  // properties: fps must not degrade as workers grow (up to the machine's
  // core count), and no steady-state submission may touch the heap.
  SchedSummary sched_summary;
  sched_summary.stats = four_worker_report.scheduler;
  {
    auto run_sched = [&](bool steal, bool pipelined) {
      runtime::PipelineConfig config;
      config.workers = 4;
      config.window = kBenchWindow;
      config.share_channel_scans = share_enabled;
      config.tracing = trace_enabled;
      config.steal = steal;
      config.pipeline_windows = pipelined;
      runtime::StreamingPipeline pipeline(engine, config);
      runtime::FrameStream stream(stream_config);
      return pipeline.run(stream, gate_factory);
    };
    const runtime::PipelineReport steal_off = run_sched(false, true);
    sched_summary.steal_off_bitwise =
        reports_bitwise_equal(steal_off, four_worker_report);
    sched_summary.steal_off_no_steals = steal_off.scheduler.steals == 0;
    const runtime::PipelineReport pipeline_off = run_sched(true, false);
    sched_summary.pipeline_off_bitwise =
        reports_bitwise_equal(pipeline_off, four_worker_report);
    sched_summary.pipeline_off_sequential =
        pipeline_off.scheduler.windows_pipelined == 0;

    // Monotone non-degrading scaling: each doubling of workers (while they
    // still fit the machine) must keep at least 90% of the previous row's
    // fps — the old shared-queue scheduler lost throughput with every
    // worker added. 0.9 absorbs shared-runner noise; real contention
    // collapse is far below it. Oversubscribed rows (workers > hw) are
    // reported but not gated.
    sched_summary.sweep_monotone = true;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].workers > hw) break;
      if (rows[i].frames_per_second < 0.9 * rows[i - 1].frames_per_second) {
        sched_summary.sweep_monotone = false;
        std::fprintf(stderr,
                     "error: fps degraded with workers: %.1f @ %zu -> %.1f "
                     "@ %zu\n",
                     rows[i - 1].frames_per_second, rows[i - 1].workers,
                     rows[i].frames_per_second, rows[i].workers);
      }
    }
    sched_summary.zero_heap = steal_off.scheduler.tasks_heap == 0 &&
                              pipeline_off.scheduler.tasks_heap == 0;
    for (const Row& row : rows) {
      sched_summary.zero_heap =
          sched_summary.zero_heap && row.sched.tasks_heap == 0;
    }
    std::printf("Scheduler gates: steal-off %s bitwise (steals %llu), "
                "pipeline-off %s bitwise (windows pipelined %llu); worker "
                "sweep %s; task submissions %s.\n\n",
                sched_summary.steal_off_bitwise ? "matches" : "DIVERGES",
                static_cast<unsigned long long>(steal_off.scheduler.steals),
                sched_summary.pipeline_off_bitwise ? "matches" : "DIVERGES",
                static_cast<unsigned long long>(
                    pipeline_off.scheduler.windows_pipelined),
                sched_summary.sweep_monotone ? "monotone non-degrading"
                                             : "DEGRADED",
                sched_summary.zero_heap ? "all inline (zero heap)"
                                        : "HEAP-ALLOCATED");
  }

  // ---- Shard sweep: N engine shards on one 4-worker pool ----------------
  util::Table shard_table({"Shards", "Frames/s", "Speedup", "J/frame",
                           "Mean loss", "mAP (%)", "Mean batch",
                           "Merged =="});
  std::vector<ShardRow> shard_rows;
  runtime::PipelineReport one_shard_merged;
  std::vector<runtime::ControlSlice> manifest_slices;  // largest shard run
  double shard_base_fps = 0.0;
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    runtime::ShardedConfig config;
    config.shards = shards;
    config.pipeline.workers = 4;
    config.pipeline.window = kBenchWindow;
    config.pipeline.share_channel_scans = share_enabled;
    config.pipeline.tracing = trace_enabled;
    runtime::ShardedPipeline pipeline(config);
    const runtime::ShardedReport report =
        pipeline.run(stream_config, shard_gate_factory);
    const runtime::PipelineReport& merged = report.merged;
    manifest_slices = merged.control_slices;
    const bool invariant =
        shards == 1 ||
        (merged.mean_energy_j == one_shard_merged.mean_energy_j &&
         merged.mean_loss == one_shard_merged.mean_loss &&
         merged.map == one_shard_merged.map &&
         merged.mean_latency_ms == one_shard_merged.mean_latency_ms &&
         merged.total_detections == one_shard_merged.total_detections);
    if (shards == 1) {
      shard_base_fps = merged.frames_per_second;
      one_shard_merged = merged;
    }
    shard_table.add_row(
        {std::to_string(shards), util::fmt(merged.frames_per_second, 1),
         util::fmt(merged.frames_per_second / shard_base_fps, 2) + "x",
         util::fmt(merged.mean_energy_j), util::fmt(merged.mean_loss),
         util::fmt_pct(merged.map), util::fmt(merged.exec.mean_batch, 2),
         invariant ? "yes" : "NO"});
    const obs::MetricsRegistry merged_metrics =
        runtime::collect_run_metrics(merged);
    shard_rows.push_back({shards, merged.frames_per_second,
                          merged.frames_per_second / shard_base_fps,
                          merged.exec.mean_batch,
                          merged.exec.channel_scans_requested,
                          merged.exec.channel_scans_unique,
                          merged.exec.tensor_allocs,
                          merged.exec.plan_cache_hits,
                          merged.exec.plan_cache_misses,
                          merged.exec.arena_bytes_high_water, invariant,
                          pcts_of(merged_metrics, "modeled/latency_ms"),
                          pcts_of(merged_metrics, "obs/wall_ms")});
  }
  std::printf("Sharded front-end at 4 shared workers (sequences hashed "
              "across shards,\nmerged report restored to stream order):\n");
  std::printf("%s\n", shard_table.render().c_str());

  // ---- Process-wide plan-cache gate -------------------------------------
  // The anchor/scoring plans live in one process-wide LRU cache, so shards
  // share them: an N-shard run must resolve at least (N-1) x (unique plans)
  // lookups as hits (every shard beyond the builder reuses each plan), and
  // the shard sweep's reports already proved bitwise invariance above —
  // cross-shard reuse is results-invisible.
  const detect::ScanPlanCacheStats plan_stats = detect::scan_plan_cache_stats();
  bool plan_cache_ok = plan_stats.plans > 0;
  for (const ShardRow& row : shard_rows) {
    if (row.shards <= 1) continue;
    plan_cache_ok = plan_cache_ok &&
                    row.plan_cache_hits >= (row.shards - 1) * plan_stats.plans;
  }
  std::printf("Scan-plan cache: %zu plans built (%zu misses), %zu hits "
              "process-wide; cross-shard reuse %s.\n\n",
              plan_stats.plans, plan_stats.misses, plan_stats.hits,
              plan_cache_ok ? "ok" : "ABSENT");

  // ---- Ingest gates ------------------------------------------------------
  // (1) Single-thread frame synthesis: the fast render must beat the
  // reference per-cell render by the ECO_INGEST_MIN_SPEEDUP floor while
  // staying bitwise identical to it. (2) Stitch determinism: the report
  // must be bitwise invariant across prefetch off (inline generation),
  // multiple lookahead depths x worker counts, and {1,2} shards with
  // prefetch on/off — the stream is a pure function of StreamConfig.
  IngestSummary ingest_summary = measure_ingest_render();
  ingest_summary.prefetch_depth = stream_config.prefetch;
  ingest_summary.blocked_pops =
      four_worker_report.scheduler.ingest_blocked_pops;
  ingest_summary.blocked_ns = four_worker_report.scheduler.ingest_blocked_ns;
  {
    const auto run_prefetch = [&](std::size_t workers, std::size_t depth) {
      runtime::PipelineConfig config;
      config.workers = workers;
      config.window = kBenchWindow;
      config.share_channel_scans = share_enabled;
      config.tracing = trace_enabled;
      runtime::StreamingPipeline pipeline(engine, config);
      runtime::StreamConfig prefetch_config = stream_config;
      prefetch_config.prefetch = depth;
      runtime::FrameStream stream(prefetch_config);
      return pipeline.run(stream, gate_factory);
    };
    const runtime::PipelineReport prefetch_off = run_prefetch(4, 0);
    ingest_summary.prefetch_off_bitwise =
        reports_bitwise_equal(prefetch_off, four_worker_report);
    ingest_summary.depth_sweep_bitwise = true;
    for (std::size_t depth : {1u, 3u}) {
      for (std::size_t workers : {1u, 2u, 4u}) {
        ingest_summary.depth_sweep_bitwise =
            ingest_summary.depth_sweep_bitwise &&
            reports_bitwise_equal(run_prefetch(workers, depth),
                                  four_worker_report);
      }
    }
    const auto run_shard_prefetch = [&](std::size_t shards,
                                        std::size_t depth) {
      runtime::ShardedConfig config;
      config.shards = shards;
      config.pipeline.workers = 4;
      config.pipeline.window = kBenchWindow;
      config.pipeline.share_channel_scans = share_enabled;
      config.pipeline.tracing = trace_enabled;
      runtime::ShardedPipeline pipeline(config);
      runtime::StreamConfig prefetch_config = stream_config;
      prefetch_config.prefetch = depth;
      return pipeline.run(prefetch_config, shard_gate_factory).merged;
    };
    ingest_summary.shards_prefetch_bitwise = true;
    for (std::size_t shards : {1u, 2u}) {
      const runtime::PipelineReport merged = run_shard_prefetch(shards, 0);
      ingest_summary.shards_prefetch_bitwise =
          ingest_summary.shards_prefetch_bitwise &&
          merged.mean_energy_j == one_shard_merged.mean_energy_j &&
          merged.mean_latency_ms == one_shard_merged.mean_latency_ms &&
          merged.mean_loss == one_shard_merged.mean_loss &&
          merged.map == one_shard_merged.map &&
          merged.total_detections == one_shard_merged.total_detections;
    }
  }
  ingest_summary.scratch_allocs = dataset::render_scratch_allocs();
  std::printf(
      "Ingest: %.1f us/frame fast vs %.1f us/frame reference render "
      "(%.2fx, %s bitwise); prefetch depth %zu, %llu starved pops "
      "(%.2f ms blocked), %llu scratch grows; prefetch-off %s, depth "
      "sweep %s, sharded prefetch %s.\n\n",
      ingest_summary.fast_us_per_frame, ingest_summary.reference_us_per_frame,
      ingest_summary.speedup_vs_reference,
      ingest_summary.fast_matches_reference ? "matches" : "DIVERGES",
      ingest_summary.prefetch_depth,
      static_cast<unsigned long long>(ingest_summary.blocked_pops),
      static_cast<double>(ingest_summary.blocked_ns) / 1e6,
      static_cast<unsigned long long>(ingest_summary.scratch_allocs),
      ingest_summary.prefetch_off_bitwise ? "matches" : "DIVERGES",
      ingest_summary.depth_sweep_bitwise ? "matches" : "DIVERGES",
      ingest_summary.shards_prefetch_bitwise ? "matches" : "DIVERGES");

  // ---- Explicit-backend sweep -------------------------------------------
  // One 4-worker run per pinned backend on the identical stream. Both
  // backends must reproduce the environment-selected sweep's report
  // bitwise; the delta column is the sampled-frame kernel self-gate.
  std::vector<BackendRow> backend_rows;
  const double simd_delta = simd_delta_vs_reference();
  {
    util::Table backend_table(
        {"Backend", "Frames/s", "max|delta| vs ref", "Report =="});
    for (tensor::Backend backend :
         {tensor::Backend::kReference, tensor::Backend::kSimd}) {
      core::EngineConfig engine_config;
      engine_config.backend = backend;
      const core::EcoFusionEngine backend_engine(engine_config);
      runtime::PipelineConfig config;
      config.workers = 4;
      config.window = kBenchWindow;
      config.share_channel_scans = share_enabled;
      config.tracing = trace_enabled;
      runtime::StreamingPipeline pipeline(backend_engine, config);
      runtime::FrameStream stream(stream_config);
      const runtime::PipelineReport report = pipeline.run(
          stream, [&backend_engine] {
            return std::make_unique<gating::KnowledgeGate>(
                backend_engine.default_knowledge_table(),
                backend_engine.config_space().size());
          });
      BackendRow row;
      row.backend = backend;
      row.frames_per_second = report.frames_per_second;
      row.max_abs_delta_vs_reference =
          backend == tensor::Backend::kSimd ? simd_delta : 0.0;
      row.report_bitwise = reports_bitwise_equal(report, four_worker_report);
      backend_rows.push_back(row);
      backend_table.add_row({tensor::backend_name(backend),
                             util::fmt(row.frames_per_second, 1),
                             util::fmt(row.max_abs_delta_vs_reference, 9),
                             row.report_bitwise ? "yes" : "NO"});
    }
    std::printf("Kernel backends at 4 workers (explicit EngineConfig.backend; "
                "bitwise equal by contract):\n%s\n",
                backend_table.render().c_str());
  }
  bool backends_invariant = true;
  for (const BackendRow& row : backend_rows) {
    backends_invariant = backends_invariant && row.report_bitwise;
  }

  std::printf("Exec layer: %zu branch runs over %zu frames (%zu/%zu "
              "unique/requested channel scans);\nstems skipped on %zu frames; "
              "%zu/%zu stem-cache hits/misses; mean batch %.2f "
              "(max %zu, %zu frames batched).\n",
              last_report.exec.branch_runs, last_report.frames,
              last_report.exec.channel_scans_unique,
              last_report.exec.channel_scans_requested,
              last_report.exec.stems_skipped, last_report.exec.stem_cache_hits,
              last_report.exec.stem_cache_misses, last_report.exec.mean_batch,
              last_report.exec.max_batch, last_report.exec.batched_frames);
  std::printf("J/frame, loss, and mAP are worker- AND shard-count invariant\n"
              "by the runtime's determinism contract; only wall-clock moves.\n");

  // ---- Tracing-overhead + determinism self-gate --------------------------
  // One extra 4-worker run with the opposite tracing flag pairs with the
  // sweep's 4-worker run: the two reports must be bitwise identical on
  // every deterministic field (tracing only observes), and the fps ratio is
  // recorded as the tracing overhead. The span-count snapshots around the
  // untraced leg prove the off path emits nothing even with a tracer
  // installed.
  ObsSummary obs_summary;
  obs_summary.trace_enabled = trace_enabled;
  auto run_tracing = [&](bool tracing_on) {
    runtime::PipelineConfig config;
    config.workers = 4;
    config.window = kBenchWindow;
    config.share_channel_scans = share_enabled;
    config.tracing = tracing_on;
    runtime::StreamingPipeline pipeline(engine, config);
    runtime::FrameStream stream(stream_config);
    return pipeline.run(stream, gate_factory);
  };
  const obs::TraceStats pre_stats = tracer.stats();
  runtime::PipelineReport traced_report, untraced_report;
  if (trace_enabled) {
    traced_report = four_worker_report;
    untraced_report = run_tracing(false);
    obs_summary.zero_spans_when_off =
        tracer.stats().total_spans == pre_stats.total_spans;
  } else {
    untraced_report = four_worker_report;
    // Every sweep so far ran with tracing=false under an installed tracer.
    obs_summary.zero_spans_when_off = pre_stats.total_spans == 0;
    traced_report = run_tracing(true);
  }
  obs_summary.fps_traced = traced_report.frames_per_second;
  obs_summary.fps_untraced = untraced_report.frames_per_second;
  obs_summary.overhead_ratio =
      obs_summary.fps_traced > 0.0
          ? obs_summary.fps_untraced / obs_summary.fps_traced
          : 0.0;
  obs_summary.traced_invariant =
      reports_bitwise_equal(traced_report, untraced_report);

  const obs::TraceStats tstats = tracer.stats();
  obs_summary.spans = tstats.total_spans;
  obs_summary.dropped_spans = tstats.dropped_spans;
  obs_summary.shard_lanes = tstats.shard_lanes;
  const std::string trace_json = tracer.trace_json();
  obs_summary.trace_valid = obs::json_valid(trace_json);
  // Stage coverage: every stage the traced runs must have exercised. Stem
  // spans are excluded (the Knowledge gate never pulls features on this
  // stream); batch-execute is required iff phase B actually formed groups;
  // the shard-merge lane only exists when the shard sweep itself was traced.
  auto stage_count = [&tstats](obs::Stage stage) {
    return tstats.per_stage[static_cast<std::size_t>(stage)];
  };
  obs_summary.stages_ok = stage_count(obs::Stage::kStreamPull) > 0 &&
                          stage_count(obs::Stage::kSelect) > 0 &&
                          stage_count(obs::Stage::kChannelScan) > 0 &&
                          stage_count(obs::Stage::kNmsMerge) > 0 &&
                          stage_count(obs::Stage::kFinishFrame) > 0 &&
                          stage_count(obs::Stage::kWindowUpdate) > 0 &&
                          stage_count(obs::Stage::kIngestGenerate) > 0;
  if (traced_report.exec.batches > 0) {
    obs_summary.stages_ok =
        obs_summary.stages_ok && stage_count(obs::Stage::kBatchExecute) > 0;
  }
  if (trace_enabled) {
    obs_summary.stages_ok =
        obs_summary.stages_ok && stage_count(obs::Stage::kShardMerge) > 0;
    if (max_shards >= 2) {
      // Shards 0 and 1 plus the run-level merge lane.
      obs_summary.stages_ok =
          obs_summary.stages_ok && tstats.shard_lanes >= 3;
    }
  }
  // A deliberately undersized ring (ECO_TRACE_CAPACITY) drops spans, so
  // stage coverage is unknowable — the drop path is what's being exercised.
  if (tstats.dropped_spans > 0 && !obs_summary.stages_ok) {
    std::printf("note: %llu spans dropped (ring capacity %zu); skipping the "
                "stage-coverage gate.\n",
                static_cast<unsigned long long>(tstats.dropped_spans),
                trace_config.ring_capacity);
    obs_summary.stages_ok = true;
  }
  if (trace_enabled) {
    obs_summary.trace_path =
        util::env_string_or("ECO_TRACE_PATH", "trace.json");
    std::FILE* tf = std::fopen(obs_summary.trace_path.c_str(), "w");
    if (tf == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   obs_summary.trace_path.c_str());
      obs_summary.trace_valid = false;
    } else {
      const std::size_t written =
          std::fwrite(trace_json.data(), 1, trace_json.size(), tf);
      const bool closed = std::fclose(tf) == 0;
      if (written != trace_json.size() || !closed) {
        std::fprintf(stderr, "error: short write to %s\n",
                     obs_summary.trace_path.c_str());
        obs_summary.trace_valid = false;
      } else {
        std::printf("Wrote %s\n", obs_summary.trace_path.c_str());
      }
    }
  }
  std::printf("Tracing overhead: %.1f fps untraced vs %.1f fps traced "
              "(%.2fx); %llu spans (%llu dropped) across %zu shard lanes; "
              "reports %s bitwise.\n",
              obs_summary.fps_untraced, obs_summary.fps_traced,
              obs_summary.overhead_ratio,
              static_cast<unsigned long long>(obs_summary.spans),
              static_cast<unsigned long long>(obs_summary.dropped_spans),
              obs_summary.shard_lanes,
              obs_summary.traced_invariant ? "match" : "DIVERGE");

  // Optional absolute floor against a pinned baseline (PR-5 numbers on a
  // known machine); unset keeps the bench hardware-agnostic.
  bool baseline_ok = true;
  {
    const double baseline = util::env_double_or("ECO_BASELINE_FPS", 0.0);
    if (baseline > 0.0) {
      baseline_ok = obs_summary.fps_untraced >= 0.9 * baseline;
      std::printf("Baseline gate: %.1f fps untraced vs %.1f baseline "
                  "(floor 0.9x): %s\n",
                  obs_summary.fps_untraced, baseline,
                  baseline_ok ? "ok" : "REGRESSED");
    }
  }

  // ---- Run manifest -------------------------------------------------------
  obs::RunManifest manifest;
  manifest.tool = "runtime_throughput";
  manifest.capture_env({"ECO_TRACE", "ECO_TRACE_PATH", "ECO_TRACE_CAPACITY",
                        "ECO_CHANNEL_SHARE", "ECO_BACKEND",
                        "ECO_BASELINE_FPS", "ECO_STEAL",
                        "ECO_PIPELINE_WINDOWS", "ECO_PREFETCH",
                        "ECO_INGEST_MIN_SPEEDUP"});
  // CPU-feature probes ride in the env block alongside the toggles: they
  // describe the execution environment a bench artifact actually ran on
  // (which dispatch widths the simd kernels could take).
  manifest.env.emplace_back("cpu_has_avx2",
                            tensor::cpu_has_avx2() ? "1" : "0");
  manifest.env.emplace_back("simd_kernels_compiled",
                            tensor::simd_kernels_compiled() ? "1" : "0");
  manifest.params = {
      {"frames_per_sequence", std::to_string(frames_per_sequence)},
      {"sequences_per_scene",
       std::to_string(stream_config.sequences_per_scene)},
      {"stream_seed", std::to_string(stream_config.seed)},
      {"control_window", std::to_string(kBenchWindow)},
      {"max_shards", std::to_string(max_shards)},
      {"prefetch_depth", std::to_string(ingest_summary.prefetch_depth)},
      {"hardware_threads", std::to_string(hw)},
      {"json_path", json_path},
  };
  for (const runtime::ControlSlice& slice : manifest_slices) {
    manifest.shard_control.push_back(
        {slice.shard_index, slice.lambda_trace, slice.deadline_trace});
  }
  const Pcts modeled_p = rows.back().modeled_latency_ms;
  const Pcts wall_p = rows.back().obs_wall_ms;
  manifest.report_fields = {
      {"frames", static_cast<double>(last_report.frames)},
      {"modeled_mean_energy_j", last_report.mean_energy_j},
      {"modeled_mean_latency_ms", last_report.mean_latency_ms},
      {"modeled_mean_loss", last_report.mean_loss},
      {"modeled_map", last_report.map},
      {"modeled_latency_ms_p50", modeled_p.p50},
      {"modeled_latency_ms_p95", modeled_p.p95},
      {"modeled_latency_ms_p99", modeled_p.p99},
      {"obs_wall_ms_p50", wall_p.p50},
      {"obs_wall_ms_p95", wall_p.p95},
      {"obs_wall_ms_p99", wall_p.p99},
      {"obs_fps_untraced", obs_summary.fps_untraced},
      {"obs_fps_traced", obs_summary.fps_traced},
      {"obs_tracing_overhead_ratio", obs_summary.overhead_ratio},
      {"zero_alloc_frames",
       static_cast<double>(last_report.exec.zero_alloc_frames)},
      {"trace_spans", static_cast<double>(obs_summary.spans)},
      {"trace_dropped_spans",
       static_cast<double>(obs_summary.dropped_spans)},
      {"sched_steals", static_cast<double>(sched_summary.stats.steals)},
      {"sched_tasks_heap",
       static_cast<double>(sched_summary.stats.tasks_heap)},
      {"sched_windows_pipelined",
       static_cast<double>(sched_summary.stats.windows_pipelined)},
      {"ingest_fast_us_per_frame", ingest_summary.fast_us_per_frame},
      {"ingest_reference_us_per_frame",
       ingest_summary.reference_us_per_frame},
      {"ingest_speedup_vs_reference", ingest_summary.speedup_vs_reference},
      {"ingest_blocked_pops",
       static_cast<double>(ingest_summary.blocked_pops)},
      {"ingest_blocked_ns", static_cast<double>(ingest_summary.blocked_ns)},
      {"ingest_render_scratch_allocs",
       static_cast<double>(ingest_summary.scratch_allocs)},
  };
  const std::string manifest_path = manifest_path_for(json_path);
  const std::string manifest_json = manifest.to_json();
  bool manifest_ok = obs::json_valid(manifest_json);
  if (!manifest_ok) {
    std::fprintf(stderr, "error: run manifest is not valid JSON\n");
  }
  manifest_ok = manifest.write_json(manifest_path) && manifest_ok;
  if (manifest_ok) std::printf("Wrote %s\n", manifest_path.c_str());

  const bool wrote =
      write_json(json_path, last_report, frames_per_sequence, rows, shard_rows,
                 share_enabled, share_invariant, modeled_p, wall_p,
                 manifest_slices, obs_summary, backend_rows, plan_stats,
                 plan_cache_ok, sched_summary, ingest_summary);
  const bool bench_json_valid = wrote && obs::json_valid(read_file(json_path));
  if (wrote && !bench_json_valid) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", json_path);
  }
  // The bench is its own gate: a merged-report or sharing invariance
  // violation, a simd-vs-reference kernel mismatch, a steady-state frame
  // that still heap-allocates tensors, a tracing-induced divergence, an
  // invalid artifact, or a lost artifact must fail the run, not depend on
  // downstream grepping.
  bool all_invariant = true;
  for (const ShardRow& row : shard_rows) {
    all_invariant = all_invariant && row.merged_invariant;
  }
  if (!all_invariant) {
    std::fprintf(stderr,
                 "error: merged report not bitwise invariant across shard "
                 "counts\n");
  }
  if (!share_invariant) {
    std::fprintf(stderr,
                 "error: channel-scan sharing not bitwise invariant (or no "
                 "dedup on the ensemble-bearing stream)\n");
  }
  const bool kernels_ok = simd_delta == 0.0;
  if (!kernels_ok) {
    std::fprintf(stderr,
                 "error: simd kernels diverge bitwise from the reference "
                 "implementations on the sampled frame (max|delta| %.9g)\n",
                 simd_delta);
  }
  if (!backends_invariant) {
    std::fprintf(stderr,
                 "error: an explicit-backend run diverges bitwise from the "
                 "environment-selected run\n");
  }
  const bool ingest_ok = ingest_summary.gates_ok();
  if (!ingest_ok) {
    std::fprintf(stderr,
                 "error: ingest gate failed (fast render diverges from "
                 "reference, speedup %.2fx below the ECO_INGEST_MIN_SPEEDUP "
                 "floor, or a prefetch topology changed the report)\n",
                 ingest_summary.speedup_vs_reference);
  }
  if (!plan_cache_ok) {
    std::fprintf(stderr,
                 "error: cross-shard scan-plan reuse absent (hits below "
                 "(shards-1) x unique plans)\n");
  }
  const bool sched_ok =
      sched_summary.steal_off_bitwise && sched_summary.steal_off_no_steals &&
      sched_summary.pipeline_off_bitwise &&
      sched_summary.pipeline_off_sequential && sched_summary.sweep_monotone &&
      sched_summary.zero_heap;
  if (!sched_ok) {
    std::fprintf(stderr,
                 "error: scheduler gate failed (toggle divergence, degraded "
                 "worker scaling, or heap-allocated task submissions)\n");
  }
  // Steady state = every frame past the first TWO control windows (the
  // window-pipelined runtime ping-pongs two slot sets, so arenas warm over
  // windows 0 and 1); those frames must report zero tensor allocations.
  bool steady_state_zero_allocs = true;
  for (const runtime::FrameStats& stats : last_report.frame_stats) {
    if (stats.stream_index >= 2 * kBenchWindow && stats.tensor_allocs != 0) {
      steady_state_zero_allocs = false;
      std::fprintf(stderr,
                   "error: steady-state frame %zu made %zu tensor "
                   "allocations (arena should have absorbed them)\n",
                   stats.stream_index, stats.tensor_allocs);
      break;
    }
  }
  std::printf("Kernel self-gate: simd conv/blur/integral/scoring %s "
              "reference bitwise; "
              "%zu tensor allocs over %zu frames (%zu zero-alloc frames, "
              "arena high water %zu bytes).\n",
              kernels_ok ? "match" : "DIVERGE FROM",
              last_report.exec.tensor_allocs, last_report.frames,
              last_report.exec.zero_alloc_frames,
              last_report.exec.arena_bytes_high_water);
  if (!obs_summary.traced_invariant) {
    std::fprintf(stderr,
                 "error: traced report diverges bitwise from the untraced "
                 "run (tracing must only observe)\n");
  }
  if (!obs_summary.zero_spans_when_off) {
    std::fprintf(stderr,
                 "error: spans were emitted with the tracing flag off\n");
  }
  if (!obs_summary.trace_valid) {
    std::fprintf(stderr, "error: exported trace is not valid JSON\n");
  }
  if (!obs_summary.stages_ok) {
    std::fprintf(stderr,
                 "error: trace is missing spans for an expected pipeline "
                 "stage (or shard lanes are absent)\n");
  }
  tracer.uninstall();
  return (all_invariant && share_invariant && kernels_ok &&
          backends_invariant && ingest_ok && plan_cache_ok &&
          sched_ok && steady_state_zero_allocs &&
          wrote && bench_json_valid && obs_summary.traced_invariant &&
          obs_summary.zero_spans_when_off && obs_summary.trace_valid &&
          obs_summary.stages_ok && manifest_ok && baseline_ok)
             ? 0
             : 1;
}
