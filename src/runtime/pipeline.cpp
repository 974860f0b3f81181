#include "runtime/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/plan_cache.hpp"

namespace eco::runtime {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One window slot: everything a single frame's task writes. Cache-line
// aligned so frame tasks on adjacent slots (possibly different workers)
// never share a line — the per-slot stats accumulate worker-locally and
// are folded once, by the driver, at the window commit.
struct alignas(kCacheLine) Slot {
  exec::FrameArena arena;
  FrameStats stats;
  eval::FrameResult result;
};

// Per-window in-flight state. The pipeline keeps two of these (window
// index parity) so window W+1's frame tasks can run over their own slot
// set while window W's are still executing. The ping-pong exists even
// when pipelining is off (or impossible): slot->frame assignment — and
// with it the arena warm-up attribution in the per-frame alloc counters —
// must be a pure function of stream order, invariant across every
// worker/steal/pipelining setting.
struct WindowState {
  std::vector<StreamFrame> frames;
  core::JointOptParams params;
  std::size_t base = 0;  // offset of this state's slot set
  // Every frame task counts this down once, whether it finished or
  // failed. The driver blocks only here — there is no pool-wide barrier
  // anywhere in the window path.
  CompletionLatch window_done;
};

// Everything the frame tasks share, hung off the driver's stack frame.
// Tasks capture {&ctx, &window, a slot index} only, so every capture fits
// SmallTask's inline storage — steady-state submission is allocation-free.
struct RunContext {
  const core::EcoFusionEngine* engine;
  std::vector<std::unique_ptr<gating::Gate>>* gates;
  Slot* slots;
  energy::GateComplexity complexity;
  bool trace;
  std::size_t shard_lane;
  bool keep_results;
  bool share_channel_scans;
  // The first frame task to fail flips `failed` and stores its exception
  // before counting its window down; the driver reads `error` only after
  // every dispatched window's window_done, which orders the store.
  std::atomic<bool> failed{false};
  std::exception_ptr error{};
};

// One frame from stems to accounting: Algorithm 1 steps 1-4 against a
// task-local workspace over the slot's arena, then the selected
// configuration φ* (its channel scans, merge, fusion and loss) and the
// slot's FrameStats. An exception is kept in ctx instead of escaping into
// the pool, and window_done counts down on every path.
void run_frame(RunContext& ctx, WindowState& w, std::size_t local,
               std::size_t worker) {
  try {
    obs::ShardScope scope(ctx.shard_lane, ctx.trace);
    Slot& slot = ctx.slots[w.base + local];
    const StreamFrame& sf = w.frames[local];
    // A frame task is a single-threaded stretch, so the thread-local
    // counter deltas are exactly this frame's tensor allocations and
    // scan-plan lookups.
    const std::uint64_t allocs_before = tensor::tensor_alloc_count();
    const std::uint64_t plan_hits_before = tensor::plan_cache_hit_count();
    const std::uint64_t plan_misses_before = tensor::plan_cache_miss_count();
    std::optional<exec::FrameWorkspace> ws;
    std::size_t selection = 0;
    {
      obs::Span span(obs::Stage::kSelect);
      ws.emplace(*ctx.engine, sf.frame, ctx.share_channel_scans, &slot.arena);
      selection = ctx.engine
                      ->select_adaptive(*ws, *(*ctx.gates)[worker], w.params)
                      .config_index;
      span.arg(static_cast<double>(selection));
      span.arg(static_cast<double>(local));
    }
    obs::Span span(obs::Stage::kFinishFrame);
    span.arg(static_cast<double>(selection));
    const auto frame_start = std::chrono::steady_clock::now();
    const core::RunResult run =
        ctx.engine->run_selected(*ws, selection, ctx.complexity);
    FrameStats stats;
    stats.stream_index = sf.index;
    stats.scene = sf.scene;
    stats.config_index = run.config_index;
    stats.loss = run.loss.total();
    stats.energy_j = run.energy_j;
    stats.latency_ms = run.latency_ms;
    stats.lambda_energy = w.params.lambda_energy;
    stats.lambda_latency = w.params.lambda_latency;
    stats.detections = run.detections.size();
    stats.stem_source = ws->stem_source();
    stats.branch_runs = ws->branch_executions();
    stats.channel_scans_requested = ws->channel_scans_requested();
    stats.channel_scans_unique = ws->channel_scans_unique();
    stats.tensor_allocs = static_cast<std::size_t>(
        tensor::tensor_alloc_count() - allocs_before);
    stats.plan_cache_hits = static_cast<std::size_t>(
        tensor::plan_cache_hit_count() - plan_hits_before);
    stats.plan_cache_misses = static_cast<std::size_t>(
        tensor::plan_cache_miss_count() - plan_misses_before);
    stats.arena_bytes_high_water = ws->arena_bytes_high_water();
    stats.wall_ms = elapsed_ms(frame_start);
    span.arg(static_cast<double>(stats.arena_bytes_high_water));
    slot.stats = stats;
    if (ctx.keep_results) {
      slot.result = {run.detections, sf.frame.objects};
    }
  } catch (...) {
    if (!ctx.failed.exchange(true, std::memory_order_relaxed)) {
      ctx.error = std::current_exception();
    }
  }
  // After the spans closed (their ring writes must precede a driver that
  // might tear tracing state down after the commit).
  w.window_done.count_down();
}

}  // namespace

StreamingPipeline::StreamingPipeline(const core::EcoFusionEngine& engine,
                                     PipelineConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.window == 0) {
    throw std::invalid_argument("StreamingPipeline: window must be >= 1");
  }
}

PipelineReport StreamingPipeline::run(FrameStream& stream,
                                      const GateFactory& make_gate) const {
  ThreadPoolConfig pool_config;
  pool_config.workers = config_.workers;
  pool_config.steal = config_.steal;
  pool_config.trace =
      config_.tracing && obs::installed_tracer() != nullptr;
  ThreadPool pool(pool_config);
  PipelineReport report = run(stream, make_gate, pool);
  // The pool is this run's alone, so its counters are this run's scheduler
  // story; keep the driver-side fields run/3 filled in. wait_idle() first:
  // the window-done events release the driver from inside the final tasks,
  // whose bookkeeping tails may still be retiring.
  pool.wait_idle();
  SchedulerStats stats = pool.stats();
  stats.barrier_wait_ns = report.scheduler.barrier_wait_ns;
  stats.windows_pipelined = report.scheduler.windows_pipelined;
  stats.ingest_blocked_pops = report.scheduler.ingest_blocked_pops;
  stats.ingest_blocked_ns = report.scheduler.ingest_blocked_ns;
  report.scheduler = stats;
  return report;
}

PipelineReport StreamingPipeline::run(FrameStream& stream,
                                      const GateFactory& make_gate,
                                      ThreadPool& pool) const {
  const auto wall_start = std::chrono::steady_clock::now();

  // Span tracing is opt-in per pipeline AND requires an installed tracer;
  // with either missing, `trace` is false, no ShardScope ever activates a
  // lane, and every span site below degrades to a predicted-not-taken
  // branch. Spans only observe — nothing they record feeds back into
  // selection, control, or accounting (the determinism tests pin this).
  const bool trace = config_.tracing && obs::installed_tracer() != nullptr;
  const std::size_t shard_lane = config_.shard_index;
  obs::ShardScope driver_scope(shard_lane, trace);

  // Hand the stream the shared pool: frame synthesis runs as sequence
  // tasks through the injector ring, `stream.config().prefetch` sequences
  // ahead of the pull loop below (0 = inline generation, no tasks).
  stream.attach_pool(pool, trace);

  // One gate per pool worker; per-worker gates must be behaviourally
  // identical (GateFactory contract), so which worker runs a frame — or
  // steals it — is unobservable in the results.
  std::vector<std::unique_ptr<gating::Gate>> gates;
  gates.reserve(pool.size());
  for (std::size_t w = 0; w < pool.size(); ++w) gates.push_back(make_gate());
  const energy::GateComplexity complexity = gates.front()->complexity();

  BudgetController budget_controller(config_.budget.value_or(BudgetConfig{}));
  DeadlineController deadline_controller(
      config_.deadline.value_or(DeadlineConfig{}));
  float lambda_energy = config_.budget ? budget_controller.lambda()
                                       : config_.joint.lambda_energy;
  float lambda_latency = config_.deadline ? deadline_controller.lambda()
                                          : config_.joint.lambda_latency;

  PipelineReport report;
  std::vector<eval::FrameResult> frame_results;

  // Two ping-ponged slot sets (window parity), reused across windows. Each
  // slot owns a persistent FrameArena: the slot's first frame warms the
  // arena's buffers and every later frame through the slot executes with
  // zero tensor heap allocations. Slot->frame assignment is a pure
  // function of stream order (index mod 2*window), so the per-frame alloc
  // counters are deterministic across workers/steal/pipelining.
  std::vector<Slot> slots(2 * config_.window);

  std::array<WindowState, 2> windows;
  windows[0].base = 0;
  windows[1].base = config_.window;

  RunContext ctx{&engine_,
                 &gates,
                 slots.data(),
                 complexity,
                 trace,
                 shard_lane,
                 config_.keep_frame_results,
                 config_.share_channel_scans};

  // With a controller configured, λ(W+1) depends on window W's fold — a
  // true serialization, so the in-flight depth drops to 1 (stream pull
  // still overlaps, and the per-window events replace both pool-wide
  // barriers). Without controllers, two windows are in flight.
  const bool pipelined =
      config_.pipeline_windows && !config_.budget && !config_.deadline;
  const std::size_t depth = pipelined ? 2 : 1;

  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t windows_pipelined = 0;
  // wait() is called even when ready() already reports completion: only the
  // mutex handshake inside wait() guarantees the releasing count_down has
  // fully retired, which is what licenses resetting/destroying the latch
  // afterwards. ready() just keeps uncontended passes out of the timing.
  const auto wait_event = [&barrier_wait_ns](CompletionLatch& event) {
    if (event.ready()) {
      event.wait();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    event.wait();
    barrier_wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  // Stream-order commit of one finished window: fold the slot stats into
  // the report, trace the λs, and feed the controllers. The
  // single-threaded, window-ordered fold here is what keeps the merged
  // reports bitwise identical across every scheduling toggle.
  const auto commit = [&](WindowState& w) {
    wait_event(w.window_done);
    obs::Span window_span(obs::Stage::kWindowUpdate);
    window_span.arg(w.params.lambda_energy);
    window_span.arg(w.params.lambda_latency);
    window_span.arg(static_cast<double>(w.frames.size()));
    double window_energy = 0.0;
    double window_latency = 0.0;
    for (std::size_t local = 0; local < w.frames.size(); ++local) {
      Slot& slot = slots[w.base + local];
      window_energy += slot.stats.energy_j;
      window_latency += slot.stats.latency_ms;
      report.frame_stats.push_back(slot.stats);
      if (config_.keep_frame_results) {
        frame_results.push_back(std::move(slot.result));
      }
    }
    report.lambda_trace.push_back(w.params.lambda_energy);
    report.deadline_trace.push_back(w.params.lambda_latency);
    const auto window_frames = static_cast<double>(w.frames.size());
    if (config_.budget) {
      budget_controller.observe(window_energy / window_frames);
      lambda_energy = budget_controller.lambda();
    }
    if (config_.deadline) {
      deadline_controller.observe(window_latency / window_frames);
      lambda_latency = deadline_controller.lambda();
    }
  };

  std::size_t next = 0;    // next window index to dispatch
  std::size_t oldest = 0;  // oldest uncommitted window index
  std::vector<StreamFrame> pull_buf;
  pull_buf.reserve(config_.window);

  for (;;) {
    // Pull the next control window off the stream — before blocking on
    // anything, so the pull overlaps the in-flight windows' execution.
    pull_buf.clear();
    {
      obs::Span span(obs::Stage::kStreamPull);
      while (pull_buf.size() < config_.window) {
        std::optional<StreamFrame> frame = stream.next();
        if (!frame) break;
        pull_buf.push_back(std::move(*frame));
      }
      span.arg(static_cast<double>(pull_buf.size()));
      span.arg(static_cast<double>(config_.window));
    }
    if (pull_buf.empty()) break;

    // Free this window's slot set (its previous occupant is window
    // next - depth at most), and at depth 1 fold the previous window
    // first so the controllers' λs are fresh for params below.
    while (oldest + depth <= next) {
      commit(windows[oldest % 2]);
      ++oldest;
    }
    // A failed frame stops dispatch; the drain below waits out the windows
    // still in flight before run() rethrows.
    if (ctx.failed.load(std::memory_order_relaxed)) break;
    if (oldest < next) ++windows_pipelined;

    WindowState& w = windows[next % 2];
    std::swap(w.frames, pull_buf);
    core::JointOptParams params = config_.joint;
    // Both control loops share the scoring weight budget; the priority
    // order decides who yields when λ_E + λ_L would exceed 1.
    const auto [applied_energy, applied_latency] = compose_control_weights(
        lambda_energy, lambda_latency, config_.priority);
    params.lambda_energy = applied_energy;
    params.lambda_latency = applied_latency;
    w.params = params;

    w.window_done.reset(w.frames.size());
    for (std::size_t local = 0; local < w.frames.size(); ++local) {
      pool.submit([c = &ctx, ww = &w, local](std::size_t worker) {
        run_frame(*c, *ww, local, worker);
      });
    }
    ++next;
  }

  // Drain: fold the still-in-flight windows in stream order.
  while (oldest < next) {
    commit(windows[oldest % 2]);
    ++oldest;
  }
  if (ctx.error) std::rethrow_exception(ctx.error);

  report.final_lambda = lambda_energy;
  report.final_lambda_latency = lambda_latency;
  report.frame_results = std::move(frame_results);
  finalize_report(report);
  report.scheduler.barrier_wait_ns = barrier_wait_ns;
  report.scheduler.windows_pipelined = windows_pipelined;
  report.scheduler.ingest_blocked_pops = stream.blocked_pops();
  report.scheduler.ingest_blocked_ns = stream.blocked_ns();

  // This run's control trajectory as a slice (shard.cpp concatenates the
  // per-shard slices under the merged report, so traces survive the merge).
  ControlSlice slice;
  slice.shard_index = config_.shard_index;
  slice.frames = report.frames;
  slice.lambda_trace = report.lambda_trace;
  slice.deadline_trace = report.deadline_trace;
  slice.final_lambda = report.final_lambda;
  slice.final_lambda_latency = report.final_lambda_latency;
  report.control_slices.push_back(std::move(slice));

  const auto wall_end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (report.wall_seconds > 0.0) {
    report.frames_per_second =
        static_cast<double>(report.frames) / report.wall_seconds;
  }
  return report;
}

void finalize_report(PipelineReport& report) {
  // Single-threaded reduction in frame_stats (stream) order throughout;
  // every sum below is an exact fold in that order, which is what makes a
  // sharded merge reassembling the same records bitwise-identical to the
  // unsharded run.
  report.frames = report.frame_stats.size();
  report.total_energy_j = 0.0;
  report.mean_energy_j = 0.0;
  report.mean_latency_ms = 0.0;
  report.mean_loss = 0.0;
  report.mean_wall_ms = 0.0;
  report.map = 0.0;
  report.total_detections = 0;
  report.per_scene.clear();
  report.exec.stems_skipped = 0;
  report.exec.stems_computed = 0;
  report.exec.branch_runs = 0;
  report.exec.channel_scans_requested = 0;
  report.exec.channel_scans_unique = 0;
  report.exec.tensor_allocs = 0;
  report.exec.plan_cache_hits = 0;
  report.exec.plan_cache_misses = 0;
  report.exec.arena_bytes_high_water = 0;
  report.exec.zero_alloc_frames = 0;

  std::map<dataset::SceneType, SceneReport> scenes;
  for (const FrameStats& stats : report.frame_stats) {
    report.total_energy_j += stats.energy_j;
    report.mean_latency_ms += stats.latency_ms;
    report.mean_loss += stats.loss;
    report.mean_wall_ms += stats.wall_ms;
    report.total_detections += stats.detections;
    report.exec.branch_runs += stats.branch_runs;
    report.exec.channel_scans_requested += stats.channel_scans_requested;
    report.exec.channel_scans_unique += stats.channel_scans_unique;
    report.exec.tensor_allocs += stats.tensor_allocs;
    report.exec.plan_cache_hits += stats.plan_cache_hits;
    report.exec.plan_cache_misses += stats.plan_cache_misses;
    report.exec.arena_bytes_high_water = std::max(
        report.exec.arena_bytes_high_water, stats.arena_bytes_high_water);
    if (stats.tensor_allocs == 0) report.exec.zero_alloc_frames += 1;
    if (stats.stem_source == exec::StemSource::kSkipped) {
      report.exec.stems_skipped += 1;
    } else {
      report.exec.stems_computed += 1;
    }
    SceneReport& scene = scenes[stats.scene];
    scene.scene = stats.scene;
    scene.frames += 1;
    scene.mean_loss += stats.loss;
    scene.mean_energy_j += stats.energy_j;
    scene.mean_latency_ms += stats.latency_ms;
  }
  if (report.frames > 0) {
    const auto n = static_cast<double>(report.frames);
    report.mean_energy_j = report.total_energy_j / n;
    report.mean_latency_ms /= n;
    report.mean_loss /= n;
    report.mean_wall_ms /= n;
  }
  report.exec.mean_batch = report.frames > 0 ? 1.0 : 0.0;
  // Overall mAP, then per-scene mAP over non-owning views of the same
  // results (frame_results stays intact for downstream consumers such as
  // the sharded merge).
  std::map<dataset::SceneType, std::vector<const eval::FrameResult*>>
      scene_results;
  const bool have_results = !report.frame_results.empty();
  if (have_results) {
    report.map = eval::mean_average_precision(report.frame_results);
    for (std::size_t i = 0; i < report.frame_stats.size(); ++i) {
      scene_results[report.frame_stats[i].scene].push_back(
          &report.frame_results[i]);
    }
  }
  for (auto& [type, scene] : scenes) {
    const auto n = static_cast<double>(scene.frames);
    scene.mean_loss /= n;
    scene.mean_energy_j /= n;
    scene.mean_latency_ms /= n;
    if (have_results) {
      scene.map = eval::mean_average_precision(scene_results[type]);
    }
    report.per_scene.push_back(scene);
  }
}

obs::MetricsRegistry collect_run_metrics(const PipelineReport& report) {
  obs::MetricsRegistry metrics;
  // Derived from the finished report's per-frame records in stream order,
  // never recorded live from workers — so the "modeled/" family inherits
  // the report's determinism for free (histogram counts are integers; the
  // shard merge concatenates the same records, so merged metrics match).
  obs::Histogram& latency = metrics.histogram("modeled/latency_ms");
  obs::Histogram& dedup = metrics.histogram("modeled/scan_dedup_ratio");
  obs::Histogram& wall = metrics.histogram("obs/wall_ms");
  for (const FrameStats& stats : report.frame_stats) {
    latency.record(stats.latency_ms);
    if (stats.channel_scans_unique > 0) {
      dedup.record(static_cast<double>(stats.channel_scans_requested) /
                   static_cast<double>(stats.channel_scans_unique));
    }
    wall.record(stats.wall_ms);
  }
  metrics.add_counter("frames", report.frames);
  metrics.add_counter("detections", report.total_detections);
  metrics.add_counter("branch_runs", report.exec.branch_runs);
  metrics.add_counter("channel_scans_requested",
                      report.exec.channel_scans_requested);
  metrics.add_counter("channel_scans_unique",
                      report.exec.channel_scans_unique);
  metrics.add_counter("stems_skipped", report.exec.stems_skipped);
  metrics.add_counter("tensor_allocs", report.exec.tensor_allocs);
  metrics.add_counter("plan_cache_hits", report.exec.plan_cache_hits);
  metrics.add_counter("plan_cache_misses", report.exec.plan_cache_misses);
  metrics.add_counter("zero_alloc_frames", report.exec.zero_alloc_frames);
  // Scheduler counters (observability only, like obs/wall_ms).
  metrics.add_counter("obs/sched_tasks_executed",
                      report.scheduler.tasks_executed);
  metrics.add_counter("obs/sched_tasks_inlined",
                      report.scheduler.tasks_inlined);
  metrics.add_counter("obs/sched_tasks_heap", report.scheduler.tasks_heap);
  metrics.add_counter("obs/sched_steals", report.scheduler.steals);
  metrics.add_counter("obs/sched_steal_failures",
                      report.scheduler.steal_failures);
  metrics.add_counter("obs/sched_parks", report.scheduler.parks);
  metrics.add_counter("obs/sched_queue_wait_ns",
                      report.scheduler.queue_wait_ns);
  metrics.add_counter("obs/sched_barrier_wait_ns",
                      report.scheduler.barrier_wait_ns);
  metrics.add_counter("obs/sched_windows_pipelined",
                      report.scheduler.windows_pipelined);
  metrics.add_counter("obs/sched_ingest_blocked_pops",
                      report.scheduler.ingest_blocked_pops);
  metrics.add_counter("obs/sched_ingest_blocked_ns",
                      report.scheduler.ingest_blocked_ns);
  metrics.set_gauge("modeled/mean_energy_j", report.mean_energy_j);
  metrics.set_gauge("modeled/mean_latency_ms", report.mean_latency_ms);
  metrics.set_gauge("modeled/mean_loss", report.mean_loss);
  metrics.set_gauge("modeled/map", report.map);
  metrics.set_gauge("obs/arena_bytes_high_water",
                    static_cast<double>(report.exec.arena_bytes_high_water));
  return metrics;
}

}  // namespace eco::runtime
