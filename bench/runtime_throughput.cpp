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
// The bench measures and emits. The invariants (reports bitwise equal across
// workers, shards, scheduler toggles, channel sharing, kernel backends,
// prefetch depths and tracing; zero steady-state allocations) are pinned by
// ctest, not re-proven here. The bench exits 1 only on what a bench alone
// can check:
//   * each worker-sweep row keeps at least 0.9x the previous row's fps, up
//     to the machine's hardware threads;
//   * the single-thread fast sensor render beats the reference render by at
//     least kMinRenderSpeedup;
//   * every artifact is written and parses as strict JSON.
// Sanitizer builds report the two timing floors without enforcing them.
//
// Artifacts, named after the JSON path (default BENCH_runtime.json):
//   <json>                     the rows, shard rows and exec, scheduler,
//                              ingest, plan-cache and tracing blocks;
//   <json stem>_manifest.json  build (git sha, compiler, flags), ECO_BACKEND,
//                              run parameters, per-shard λ_E/λ_L traces;
//   <json stem>_trace.json     Chrome trace_event JSON (open it in Perfetto)
//                              of one traced repetition of the largest
//                              shard-sweep row.
//
// Build & run (both counts are plain positive decimals; anything else prints
// the usage and exits 2):
//   ./build/bench/runtime_throughput [frames_per_sequence] [json] [max_shards]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "dataset/sensor_model.hpp"
#include "dataset/sequence.hpp"
#include "detect/scan_scratch.hpp"
#include "gating/knowledge_gate.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "tensor/backend.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// Control-window size used by every run below.
constexpr std::size_t kBenchWindow = 16;

/// Floor on the single-thread fast/reference render speedup.
constexpr double kMinRenderSpeedup = 1.3;

/// The timing floors (worker scaling, render speedup) hold for optimized,
/// uninstrumented builds only. A sanitizer build still drives every path
/// and writes every artifact, but its timings are not a regression signal.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kEnforceTimingFloors = false;
#else
constexpr bool kEnforceTimingFloors = true;
#endif

/// Prefix of the message for a missed timing floor.
constexpr const char* kFloorMiss =
    kEnforceTimingFloors ? "error" : "note (sanitizer build, not enforced)";

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
  Pcts modeled_latency_ms;
  Pcts obs_wall_ms;
};

/// Ingest summary: the single-thread fast-vs-reference render timing and the
/// 4-worker sweep run's starvation counters.
struct IngestSummary {
  double fast_us_per_frame = 0.0;       // all 4 sensors, single thread
  double reference_us_per_frame = 0.0;  // per-cell at() render, same frames
  double speedup_vs_reference = 0.0;    // reference / fast
  bool speedup_ok = false;              // >= kMinRenderSpeedup
  std::size_t prefetch_depth = 0;       // depth the sweep runs used
  std::uint64_t blocked_pops = 0;       // 4-worker run consumer starvation
  std::uint64_t blocked_ns = 0;
  std::uint64_t scratch_allocs = 0;     // RenderScratch grow events
};

/// Times the two render backends over one planned sequence (every frame,
/// all four sensors — the unit of work an ingest generation task performs).
/// Single-threaded by construction: this is the per-frame synthesis cost,
/// not the pipelined throughput. sensor_model_test pins the two renders
/// bitwise equal.
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
  // Best of three passes; the first fast pass also warms the scratch.
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
  out.speedup_ok = out.speedup_vs_reference >= kMinRenderSpeedup;
  return out;
}

/// The traced repetition of the largest shard-sweep row: its fps next to the
/// untraced row's (the tracing overhead) and the exported trace's shape.
struct TraceSummary {
  double fps_untraced = 0.0;
  double fps_traced = 0.0;
  double overhead_ratio = 0.0;  // fps_untraced / fps_traced
  eco::obs::TraceStats stats;
  bool trace_valid = false;  // written and strict JSON
  std::string trace_path;
};

/// Everything one run measures; the JSON and the manifest both read it.
struct Results {
  std::size_t frames_per_sequence = 0;
  eco::runtime::PipelineReport report;  // the last worker-sweep row
  std::vector<Row> rows;
  std::vector<ShardRow> shard_rows;
  std::vector<eco::runtime::ControlSlice> control_slices;  // largest shards
  eco::runtime::SchedulerStats sched;  // the 4-worker sweep row
  bool sweep_monotone = false;  // fps non-degrading up to hardware threads
  eco::detect::ScanPlanCacheStats plan_cache;
  IngestSummary ingest;
  TraceSummary trace;
};

/// A positive count argument; nullopt for zero or anything but digits.
std::optional<std::size_t> parse_count(const char* arg) {
  const std::optional<std::size_t> value = eco::util::parse_size(arg);
  if (!value || *value == 0) return std::nullopt;
  return value;
}

/// ("BENCH_runtime.json", "_manifest") -> "BENCH_runtime_manifest.json".
std::string sibling_path(const std::string& json_path, const char* suffix) {
  const std::string ext = ".json";
  std::string stem = json_path;
  if (stem.size() > ext.size() && stem.ends_with(ext)) {
    stem.resize(stem.size() - ext.size());
  }
  return stem + suffix + ext;
}

/// True when `path` exists and holds strict JSON.
bool json_file_valid(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return eco::obs::json_valid(text);
}

void write_float_array(std::FILE* f, const std::vector<float>& values) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%.9g%s", static_cast<double>(values[i]),
                 i + 1 < values.size() ? ", " : "");
  }
  std::fputc(']', f);
}

bool write_json(const std::string& path, const Results& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const eco::runtime::PipelineReport& report = r.report;
  const Pcts& modeled_p = r.rows.back().modeled_latency_ms;
  const Pcts& wall_p = r.rows.back().obs_wall_ms;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"runtime_throughput\",\n");
  std::fprintf(f, "  \"frames\": %zu,\n", report.frames);
  std::fprintf(f, "  \"frames_per_sequence\": %zu,\n", r.frames_per_sequence);
  std::fprintf(f, "  \"mean_energy_j\": %.6f,\n", report.mean_energy_j);
  std::fprintf(f, "  \"mean_latency_ms\": %.6f,\n", report.mean_latency_ms);
  std::fprintf(f, "  \"mean_loss\": %.6f,\n", report.mean_loss);
  std::fprintf(f, "  \"map\": %.6f,\n", report.map);
  // Modeled percentiles are deterministic (diffable across runs and
  // builds); obs_wall_* are wall-clock observability only and must never
  // enter a bitwise comparison.
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
  std::fprintf(f, "  \"plan_cache\": {\"plans\": %zu, \"hits\": %zu, "
               "\"misses\": %zu},\n",
               r.plan_cache.plans, r.plan_cache.hits, r.plan_cache.misses);
  // Scheduler block: the 4-worker sweep run's counters (wall-clock-class
  // observability) plus the worker-scaling gate result.
  const eco::runtime::SchedulerStats& sched = r.sched;
  std::fprintf(f, "  \"scheduler\": {\n");
  std::fprintf(f, "    \"tasks_executed\": %llu,\n",
               static_cast<unsigned long long>(sched.tasks_executed));
  std::fprintf(f, "    \"tasks_inlined\": %llu,\n",
               static_cast<unsigned long long>(sched.tasks_inlined));
  std::fprintf(f, "    \"tasks_heap\": %llu,\n",
               static_cast<unsigned long long>(sched.tasks_heap));
  std::fprintf(f, "    \"steals\": %llu,\n",
               static_cast<unsigned long long>(sched.steals));
  std::fprintf(f, "    \"steal_failures\": %llu,\n",
               static_cast<unsigned long long>(sched.steal_failures));
  std::fprintf(f, "    \"injector_submits\": %llu,\n",
               static_cast<unsigned long long>(sched.injector_submits));
  std::fprintf(f, "    \"overflow_submits\": %llu,\n",
               static_cast<unsigned long long>(sched.overflow_submits));
  std::fprintf(f, "    \"parks\": %llu,\n",
               static_cast<unsigned long long>(sched.parks));
  std::fprintf(f, "    \"queue_wait_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.queue_wait_ns));
  std::fprintf(f, "    \"barrier_wait_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.barrier_wait_ns));
  std::fprintf(f, "    \"windows_pipelined\": %llu,\n",
               static_cast<unsigned long long>(sched.windows_pipelined));
  std::fprintf(f, "    \"ingest_blocked_pops\": %llu,\n",
               static_cast<unsigned long long>(sched.ingest_blocked_pops));
  std::fprintf(f, "    \"ingest_blocked_ns\": %llu,\n",
               static_cast<unsigned long long>(sched.ingest_blocked_ns));
  std::fprintf(f, "    \"sweep_monotone\": %s\n",
               r.sweep_monotone ? "true" : "false");
  std::fprintf(f, "  },\n");
  // Ingest block: us/frame are wall-clock-class (machine-dependent).
  const IngestSummary& ingest = r.ingest;
  std::fprintf(f, "  \"ingest\": {\n");
  std::fprintf(f, "    \"fast_us_per_frame\": %.2f,\n",
               ingest.fast_us_per_frame);
  std::fprintf(f, "    \"reference_us_per_frame\": %.2f,\n",
               ingest.reference_us_per_frame);
  std::fprintf(f, "    \"speedup_vs_reference\": %.4f,\n",
               ingest.speedup_vs_reference);
  std::fprintf(f, "    \"speedup_ok\": %s,\n",
               ingest.speedup_ok ? "true" : "false");
  std::fprintf(f, "    \"prefetch_depth\": %zu,\n", ingest.prefetch_depth);
  std::fprintf(f, "    \"blocked_pops\": %llu,\n",
               static_cast<unsigned long long>(ingest.blocked_pops));
  std::fprintf(f, "    \"blocked_ns\": %llu,\n",
               static_cast<unsigned long long>(ingest.blocked_ns));
  std::fprintf(f, "    \"render_scratch_allocs\": %llu\n",
               static_cast<unsigned long long>(ingest.scratch_allocs));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Row& row = r.rows[i];
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
                 row.workers, row.frames_per_second, row.speedup,
                 row.channel_scans_requested, row.channel_scans_unique,
                 row.tensor_allocs, row.arena_bytes_high_water,
                 row.modeled_latency_ms.p50, row.modeled_latency_ms.p95,
                 row.modeled_latency_ms.p99, row.obs_wall_ms.p50,
                 row.obs_wall_ms.p95, row.obs_wall_ms.p99,
                 static_cast<unsigned long long>(row.sched.steals),
                 static_cast<unsigned long long>(row.sched.steal_failures),
                 static_cast<unsigned long long>(row.sched.parks),
                 static_cast<unsigned long long>(row.sched.queue_wait_ns),
                 static_cast<unsigned long long>(row.sched.barrier_wait_ns),
                 static_cast<unsigned long long>(row.sched.tasks_inlined),
                 static_cast<unsigned long long>(row.sched.tasks_heap),
                 static_cast<unsigned long long>(row.sched.windows_pipelined),
                 static_cast<unsigned long long>(
                     row.sched.ingest_blocked_pops),
                 static_cast<unsigned long long>(row.sched.ingest_blocked_ns),
                 i + 1 < r.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"shard_rows\": [\n");
  for (std::size_t i = 0; i < r.shard_rows.size(); ++i) {
    const ShardRow& row = r.shard_rows[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"frames_per_second\": %.2f, "
                 "\"speedup\": %.3f, \"mean_batch\": %.3f, "
                 "\"channel_scans_requested\": %zu, "
                 "\"channel_scans_unique\": %zu, "
                 "\"tensor_allocs\": %zu, "
                 "\"plan_cache_hits\": %zu, "
                 "\"plan_cache_misses\": %zu, "
                 "\"arena_bytes_high_water\": %zu, "
                 "\"modeled_latency_ms_p50\": %.6f, "
                 "\"modeled_latency_ms_p95\": %.6f, "
                 "\"modeled_latency_ms_p99\": %.6f, "
                 "\"obs_wall_ms_p50\": %.6f, \"obs_wall_ms_p95\": %.6f, "
                 "\"obs_wall_ms_p99\": %.6f}%s\n",
                 row.shards, row.frames_per_second, row.speedup,
                 row.mean_batch, row.channel_scans_requested,
                 row.channel_scans_unique, row.tensor_allocs,
                 row.plan_cache_hits, row.plan_cache_misses,
                 row.arena_bytes_high_water, row.modeled_latency_ms.p50,
                 row.modeled_latency_ms.p95, row.modeled_latency_ms.p99,
                 row.obs_wall_ms.p50, row.obs_wall_ms.p95, row.obs_wall_ms.p99,
                 i + 1 < r.shard_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // The merged report carries every shard's per-window λ_E/λ_L trajectory;
  // these slices come from the largest shard-sweep run.
  std::fprintf(f, "  \"control_slices\": [\n");
  for (std::size_t i = 0; i < r.control_slices.size(); ++i) {
    const eco::runtime::ControlSlice& slice = r.control_slices[i];
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
    std::fprintf(f, "}%s\n", i + 1 < r.control_slices.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const TraceSummary& trace = r.trace;
  std::fprintf(f, "  \"tracing\": {\n");
  std::fprintf(f, "    \"fps_untraced\": %.2f,\n", trace.fps_untraced);
  std::fprintf(f, "    \"fps_traced\": %.2f,\n", trace.fps_traced);
  std::fprintf(f, "    \"overhead_ratio\": %.4f,\n", trace.overhead_ratio);
  std::fprintf(f, "    \"spans\": %llu,\n",
               static_cast<unsigned long long>(trace.stats.total_spans));
  std::fprintf(f, "    \"dropped_spans\": %llu,\n",
               static_cast<unsigned long long>(trace.stats.dropped_spans));
  std::fprintf(f, "    \"shard_lanes\": %zu,\n", trace.stats.shard_lanes);
  std::fprintf(f, "    \"trace_valid\": %s,\n",
               trace.trace_valid ? "true" : "false");
  std::fprintf(f, "    \"trace_path\": \"%s\"\n",
               eco::obs::json_escape(trace.trace_path).c_str());
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eco;

  const std::optional<std::size_t> frames_arg =
      argc > 1 ? parse_count(argv[1]) : std::optional<std::size_t>(16);
  const std::optional<std::size_t> shards_arg =
      argc > 3 ? parse_count(argv[3]) : std::optional<std::size_t>(4);
  if (!frames_arg || !shards_arg) {
    std::fprintf(stderr,
                 "usage: runtime_throughput [frames_per_sequence >= 1] "
                 "[json_path] [max_shards >= 1]\n");
    return 2;
  }
  const std::size_t frames_per_sequence = *frames_arg;
  const std::size_t max_shards = *shards_arg;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_runtime.json";

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

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("Streaming-runtime throughput (hardware threads: %u)\n", hw);
  std::printf("Stream: 8 scene lanes x %zu sequences x %zu frames = %zu frames\n\n",
              stream_config.sequences_per_scene, frames_per_sequence,
              8 * stream_config.sequences_per_scene * frames_per_sequence);

  Results results;
  results.frames_per_sequence = frames_per_sequence;

  // ---- Worker sweep: one StreamingPipeline, shared engine ----------------
  util::Table table({"Workers", "Frames/s", "Speedup", "J/frame",
                     "Model ms/frame", "Mean loss", "mAP (%)", "Scans u/r"});
  double base_fps = 0.0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    runtime::PipelineConfig config;
    config.workers = workers;
    config.window = kBenchWindow;
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
    results.rows.push_back({workers, report.frames_per_second,
                            report.frames_per_second / base_fps,
                            report.exec.channel_scans_requested,
                            report.exec.channel_scans_unique,
                            report.exec.tensor_allocs,
                            report.exec.arena_bytes_high_water,
                            pcts_of(metrics, "modeled/latency_ms"),
                            pcts_of(metrics, "obs/wall_ms"),
                            report.scheduler});
    if (workers == 4) results.sched = report.scheduler;
    results.report = std::move(report);
  }
  const std::vector<Row>& rows = results.rows;
  std::printf("%s\n", table.render().c_str());
  std::printf("Modeled latency percentiles (deterministic): p50 %.3f / "
              "p95 %.3f / p99 %.3f ms; wall p95 %.3f ms (obs only).\n\n",
              rows.back().modeled_latency_ms.p50,
              rows.back().modeled_latency_ms.p95,
              rows.back().modeled_latency_ms.p99, rows.back().obs_wall_ms.p95);

  // ---- Scheduler counters per sweep row ---------------------------------
  // All observability (wall-clock-class): steals and waits move with the
  // machine; the determinism contract deliberately excludes them.
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

  // Monotone non-degrading scaling: each doubling of workers (while they
  // still fit the machine) must keep at least 90% of the previous row's
  // fps. 0.9 absorbs shared-runner noise; real contention collapse is far
  // below it. Oversubscribed rows (workers > hw) are reported, not gated.
  results.sweep_monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].workers > hw) break;
    if (rows[i].frames_per_second < 0.9 * rows[i - 1].frames_per_second) {
      results.sweep_monotone = false;
      std::fprintf(stderr,
                   "%s: fps degraded with workers: %.1f @ %zu -> %.1f "
                   "@ %zu\n",
                   kFloorMiss, rows[i - 1].frames_per_second,
                   rows[i - 1].workers, rows[i].frames_per_second,
                   rows[i].workers);
    }
  }

  // ---- Shard sweep: N engine shards on one 4-worker pool ----------------
  // The pipeline is destroyed before run_shards returns, so its pool has
  // joined and emits no more spans once a traced run comes back.
  const auto run_shards = [&](std::size_t shards, bool tracing) {
    runtime::ShardedConfig config;
    config.shards = shards;
    config.pipeline.workers = 4;
    config.pipeline.window = kBenchWindow;
    config.pipeline.tracing = tracing;
    runtime::ShardedPipeline pipeline(config);
    return pipeline.run(stream_config, shard_gate_factory);
  };
  util::Table shard_table({"Shards", "Frames/s", "Speedup", "J/frame",
                           "Mean loss", "mAP (%)", "Mean batch"});
  double shard_base_fps = 0.0;
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    const runtime::PipelineReport merged =
        run_shards(shards, /*tracing=*/false).merged;
    results.control_slices = merged.control_slices;
    if (shards == 1) shard_base_fps = merged.frames_per_second;
    shard_table.add_row(
        {std::to_string(shards), util::fmt(merged.frames_per_second, 1),
         util::fmt(merged.frames_per_second / shard_base_fps, 2) + "x",
         util::fmt(merged.mean_energy_j), util::fmt(merged.mean_loss),
         util::fmt_pct(merged.map), util::fmt(merged.exec.mean_batch, 2)});
    const obs::MetricsRegistry merged_metrics =
        runtime::collect_run_metrics(merged);
    results.shard_rows.push_back(
        {shards, merged.frames_per_second,
         merged.frames_per_second / shard_base_fps, merged.exec.mean_batch,
         merged.exec.channel_scans_requested,
         merged.exec.channel_scans_unique, merged.exec.tensor_allocs,
         merged.exec.plan_cache_hits, merged.exec.plan_cache_misses,
         merged.exec.arena_bytes_high_water,
         pcts_of(merged_metrics, "modeled/latency_ms"),
         pcts_of(merged_metrics, "obs/wall_ms")});
  }
  std::printf("Sharded front-end at 4 shared workers (sequences hashed "
              "across shards,\nmerged report restored to stream order):\n");
  std::printf("%s\n", shard_table.render().c_str());

  results.plan_cache = detect::scan_plan_cache_stats();
  std::printf("Scan-plan cache: %zu plans built (%zu misses), %zu hits "
              "process-wide.\n\n",
              results.plan_cache.plans, results.plan_cache.misses,
              results.plan_cache.hits);

  // ---- Traced repetition of the largest shard-sweep row -----------------
  // Spans only observe (obs_test pins traced == untraced bitwise), so the fps
  // ratio to the untraced row is the tracing overhead, and the exported
  // trace is the run's stage-by-stage timeline with one lane per shard.
  TraceSummary& trace = results.trace;
  {
    obs::Tracer tracer;
    tracer.install();
    trace.fps_traced =
        run_shards(results.shard_rows.back().shards, /*tracing=*/true)
            .merged.frames_per_second;
    tracer.uninstall();
    trace.stats = tracer.stats();
    trace.trace_path = sibling_path(json_path, "_trace");
    trace.trace_valid = tracer.write_json(trace.trace_path) &&
                        json_file_valid(trace.trace_path);
  }
  trace.fps_untraced = results.shard_rows.back().frames_per_second;
  trace.overhead_ratio =
      trace.fps_traced > 0.0 ? trace.fps_untraced / trace.fps_traced : 0.0;
  std::printf("Tracing overhead at %zu shards: %.1f fps untraced vs %.1f fps "
              "traced (%.2fx); %llu spans (%llu dropped) across %zu shard "
              "lanes.\n\n",
              results.shard_rows.back().shards, trace.fps_untraced,
              trace.fps_traced, trace.overhead_ratio,
              static_cast<unsigned long long>(trace.stats.total_spans),
              static_cast<unsigned long long>(trace.stats.dropped_spans),
              trace.stats.shard_lanes);

  // ---- Single-thread render timing + ingest starvation ------------------
  IngestSummary& ingest = results.ingest;
  ingest = measure_ingest_render();
  ingest.prefetch_depth = stream_config.prefetch;
  ingest.blocked_pops = results.sched.ingest_blocked_pops;
  ingest.blocked_ns = results.sched.ingest_blocked_ns;
  ingest.scratch_allocs = dataset::render_scratch_allocs();
  std::printf("Ingest: %.1f us/frame fast vs %.1f us/frame reference render "
              "(%.2fx, floor %.1fx); prefetch depth %zu, %llu starved pops "
              "(%.2f ms blocked) at 4 workers, %llu scratch grows.\n\n",
              ingest.fast_us_per_frame, ingest.reference_us_per_frame,
              ingest.speedup_vs_reference, kMinRenderSpeedup,
              ingest.prefetch_depth,
              static_cast<unsigned long long>(ingest.blocked_pops),
              static_cast<double>(ingest.blocked_ns) / 1e6,
              static_cast<unsigned long long>(ingest.scratch_allocs));

  const runtime::PipelineReport& last_report = results.report;
  std::printf("Exec layer: %zu branch runs over %zu frames (%zu/%zu "
              "unique/requested channel scans);\nstems skipped on %zu frames; "
              "%zu/%zu stem-cache hits/misses; mean batch %.2f "
              "(max %zu, %zu frames batched); %zu tensor allocs (%zu "
              "zero-alloc frames, arena high water %zu bytes).\n",
              last_report.exec.branch_runs, last_report.frames,
              last_report.exec.channel_scans_unique,
              last_report.exec.channel_scans_requested,
              last_report.exec.stems_skipped, last_report.exec.stem_cache_hits,
              last_report.exec.stem_cache_misses, last_report.exec.mean_batch,
              last_report.exec.max_batch, last_report.exec.batched_frames,
              last_report.exec.tensor_allocs,
              last_report.exec.zero_alloc_frames,
              last_report.exec.arena_bytes_high_water);
  std::printf("J/frame, loss, and mAP are worker- AND shard-count invariant\n"
              "by the runtime's determinism contract; only wall-clock moves.\n");

  // ---- Run manifest -------------------------------------------------------
  obs::RunManifest manifest;
  manifest.tool = "runtime_throughput";
  manifest.capture_env({"ECO_BACKEND"});
  // CPU-feature probes ride in the env block alongside the knob: they
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
      {"prefetch_depth", std::to_string(ingest.prefetch_depth)},
      {"hardware_threads", std::to_string(hw)},
      {"json_path", json_path},
      {"trace_path", trace.trace_path},
  };
  for (const runtime::ControlSlice& slice : results.control_slices) {
    manifest.shard_control.push_back(
        {slice.shard_index, slice.lambda_trace, slice.deadline_trace});
  }
  const Pcts& modeled_p = rows.back().modeled_latency_ms;
  const Pcts& wall_p = rows.back().obs_wall_ms;
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
      {"obs_fps_untraced", trace.fps_untraced},
      {"obs_fps_traced", trace.fps_traced},
      {"obs_tracing_overhead_ratio", trace.overhead_ratio},
      {"zero_alloc_frames",
       static_cast<double>(last_report.exec.zero_alloc_frames)},
      {"trace_spans", static_cast<double>(trace.stats.total_spans)},
      {"trace_dropped_spans",
       static_cast<double>(trace.stats.dropped_spans)},
      {"sched_steals", static_cast<double>(results.sched.steals)},
      {"sched_tasks_heap", static_cast<double>(results.sched.tasks_heap)},
      {"sched_windows_pipelined",
       static_cast<double>(results.sched.windows_pipelined)},
      {"ingest_fast_us_per_frame", ingest.fast_us_per_frame},
      {"ingest_reference_us_per_frame", ingest.reference_us_per_frame},
      {"ingest_speedup_vs_reference", ingest.speedup_vs_reference},
      {"ingest_blocked_pops", static_cast<double>(ingest.blocked_pops)},
      {"ingest_blocked_ns", static_cast<double>(ingest.blocked_ns)},
      {"ingest_render_scratch_allocs",
       static_cast<double>(ingest.scratch_allocs)},
  };
  const std::string manifest_path = sibling_path(json_path, "_manifest");
  const bool manifest_ok =
      manifest.write_json(manifest_path) && json_file_valid(manifest_path);
  const bool json_ok =
      write_json(json_path, results) && json_file_valid(json_path);

  // ---- Exit conditions only a bench can check ---------------------------
  if (!ingest.speedup_ok) {
    std::fprintf(stderr,
                 "%s: fast render is only %.2fx the reference render "
                 "(floor %.1fx)\n",
                 kFloorMiss, ingest.speedup_vs_reference, kMinRenderSpeedup);
  }
  bool ok = !kEnforceTimingFloors ||
            (results.sweep_monotone && ingest.speedup_ok);
  const std::vector<std::pair<std::string, bool>> artifacts = {
      {json_path, json_ok},
      {manifest_path, manifest_ok},
      {trace.trace_path, trace.trace_valid}};
  for (const auto& [path, valid] : artifacts) {
    if (valid) {
      std::printf("Wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s was not written as valid JSON\n",
                   path.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
