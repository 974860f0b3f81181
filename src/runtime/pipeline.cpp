#include "runtime/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "exec/batcher.hpp"
#include "exec/stem_cache.hpp"
#include "obs/trace.hpp"
#include "tensor/plan_cache.hpp"

namespace eco::runtime {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One window slot: everything a single frame's tasks write. Cache-line
// aligned so phase-A writers on adjacent slots (different lanes, hence
// possibly different workers) never share a line — the per-slot stats and
// counters accumulate worker-locally and are folded once, by the driver,
// at the window commit.
struct alignas(kCacheLine) Slot {
  std::unique_ptr<exec::FrameWorkspace> workspace;
  exec::FrameArena arena;
  std::size_t selection = 0;
  FrameStats stats;
  eval::FrameResult result;
};

// Per-window in-flight state. The pipeline keeps two of these (window
// index parity) so window W+1's phase A can run over its own slot set
// while window W's phase B is still executing. The ping-pong exists even
// when pipelining is off (or impossible): slot->frame assignment — and
// with it the arena warm-up attribution in the per-frame alloc counters —
// must be a pure function of stream order, invariant across every
// worker/steal/pipelining setting.
struct WindowState {
  std::vector<StreamFrame> frames;
  /// Slots grouped by sequence (local indices, stream order within each).
  std::vector<std::vector<std::size_t>> lanes;
  core::JointOptParams params;
  std::size_t base = 0;  // offset of this state's slot set

  // Phase-B grouping, formed by the last phase-A lane (deterministic:
  // ascending selected-config order over slot order). Buffers are reused
  // across windows, so steady-state formation does not allocate.
  struct Group {
    std::size_t selected = 0;
    std::size_t begin = 0;  // [begin, end) into group_slots
    std::size_t end = 0;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_slots;
  std::size_t batches = 0;
  std::size_t max_batch = 0;

  // Dependency tracking. lanes_remaining elects the last-finishing phase-A
  // lane, which forms + submits phase B and releases select_done; every
  // finished frame counts window_done down. The driver blocks only here —
  // there is no pool-wide barrier anywhere in the window path.
  std::atomic<std::size_t> lanes_remaining{0};
  CompletionLatch select_done;
  CompletionLatch window_done;
};

// Everything the window tasks share, hung off the driver's stack frame.
// Tasks capture {&ctx, &window, small indices} only, so every capture fits
// SmallTask's inline storage — steady-state submission is allocation-free.
struct RunContext {
  const core::EcoFusionEngine* engine;
  ThreadPool* pool;
  const exec::BranchBatcher* batcher;
  exec::TemporalStemCache* stem_cache;  // nullptr when disabled
  std::vector<std::unique_ptr<gating::Gate>>* gates;
  Slot* slots;
  energy::GateComplexity complexity;
  bool trace;
  std::size_t shard_lane;
  bool keep_results;
  bool share_channel_scans;
  bool batch_branches;
};

void submit_phase_b(RunContext& ctx, WindowState& w);

// Phase A for one sequence lane: construct workspaces and run Algorithm 1
// steps 1-4 for each of the lane's slots in stream order.
void run_lane(RunContext& ctx, WindowState& w, std::size_t lane_index,
              std::size_t worker) {
  {
    obs::ShardScope scope(ctx.shard_lane, ctx.trace);
    for (std::size_t local : w.lanes[lane_index]) {
      Slot& slot = ctx.slots[w.base + local];
      const StreamFrame& sf = w.frames[local];
      obs::Span span(obs::Stage::kSelect);
      // A lane task is a single-threaded stretch, so the thread-local
      // alloc counter delta is exactly this slot's selection-phase
      // tensor allocations.
      const std::uint64_t allocs_before = tensor::tensor_alloc_count();
      const std::uint64_t plan_hits_before = tensor::plan_cache_hit_count();
      const std::uint64_t plan_misses_before = tensor::plan_cache_miss_count();
      slot.workspace = std::make_unique<exec::FrameWorkspace>(
          *ctx.engine, sf.frame, ctx.stem_cache, sf.sequence_id,
          ctx.share_channel_scans, &slot.arena);
      slot.selection =
          ctx.engine
              ->select_adaptive(*slot.workspace, *(*ctx.gates)[worker],
                                w.params)
              .config_index;
      slot.workspace->note_tensor_allocs(static_cast<std::size_t>(
          tensor::tensor_alloc_count() - allocs_before));
      slot.workspace->note_plan_cache(
          static_cast<std::size_t>(tensor::plan_cache_hit_count() -
                                   plan_hits_before),
          static_cast<std::size_t>(tensor::plan_cache_miss_count() -
                                   plan_misses_before));
      span.arg(static_cast<double>(slot.selection));
      span.arg(static_cast<double>(local));
    }
  }
  // The last lane to finish owns the window's phase-B formation. The
  // acq_rel decrement makes every lane's selections visible to it.
  if (w.lanes_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Release the driver first (it may start the next window's phase A —
    // chained behind this event so per-sequence stem refreshes never
    // overlap), then fan phase B out.
    w.select_done.count_down();
    submit_phase_b(ctx, w);
  }
}

// Per-frame phase-B tail: execute the selected configuration, fuse, score,
// and record the slot's FrameStats. Counts the window's completion event
// down once done.
void finish_frame(RunContext& ctx, WindowState& w, std::size_t group_index,
                  std::size_t local, double shared_wall_ms) {
  const WindowState::Group& g = w.groups[group_index];
  const std::size_t batch = g.end - g.begin;
  Slot& slot = ctx.slots[w.base + local];
  {
    obs::ShardScope scope(ctx.shard_lane, ctx.trace);
    obs::Span span(obs::Stage::kFinishFrame);
    span.arg(static_cast<double>(g.selected));
    span.arg(static_cast<double>(batch));
    const auto frame_start = std::chrono::steady_clock::now();
    exec::FrameWorkspace& ws = *slot.workspace;
    const std::uint64_t allocs_before = tensor::tensor_alloc_count();
    const std::uint64_t plan_hits_before = tensor::plan_cache_hit_count();
    const std::uint64_t plan_misses_before = tensor::plan_cache_miss_count();
    const core::RunResult run =
        ctx.engine->run_selected(ws, g.selected, ctx.complexity);
    ws.note_tensor_allocs(static_cast<std::size_t>(
        tensor::tensor_alloc_count() - allocs_before));
    ws.note_plan_cache(static_cast<std::size_t>(tensor::plan_cache_hit_count() -
                                                plan_hits_before),
                       static_cast<std::size_t>(
                           tensor::plan_cache_miss_count() -
                           plan_misses_before));
    const StreamFrame& sf = w.frames[local];
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
    stats.stem_source = ws.stem_source();
    stats.batch_size = batch;
    stats.branch_runs = ws.branch_executions();
    stats.channel_scans_requested = ws.channel_scans_requested();
    stats.channel_scans_unique = ws.channel_scans_unique();
    stats.tensor_allocs = ws.tensor_allocs();
    stats.plan_cache_hits = ws.plan_cache_hits();
    stats.plan_cache_misses = ws.plan_cache_misses();
    stats.arena_bytes_high_water = ws.arena_bytes_high_water();
    stats.wall_ms = shared_wall_ms + elapsed_ms(frame_start);
    span.arg(static_cast<double>(stats.arena_bytes_high_water));
    slot.stats = stats;
    if (ctx.keep_results) {
      slot.result = {run.detections, sf.frame.objects};
    }
  }
  // After the span closed (its ring write must precede a driver that might
  // tear tracing state down after the commit).
  w.window_done.count_down();
}

// Batched phase-B execution for one group: run the unique channel scans of
// the selected configuration across the whole group, then fan the per-frame
// tails back out to the pool.
void run_batch(RunContext& ctx, WindowState& w, std::size_t group_index) {
  // By value: once this function submits the group's LAST finish task, the
  // window can complete and the driver may destroy `w` — from that point on
  // only this copy (and other locals) may be read.
  const WindowState::Group g = w.groups[group_index];
  const std::size_t size = g.end - g.begin;
  double shared_ms = 0.0;
  {
    obs::ShardScope scope(ctx.shard_lane, ctx.trace);
    obs::Span batch_span(obs::Stage::kBatchExecute);
    batch_span.arg(static_cast<double>(g.selected));
    batch_span.arg(static_cast<double>(size));
    const auto batch_start = std::chrono::steady_clock::now();
    std::vector<exec::FrameWorkspace*> batch_group;
    batch_group.reserve(size);
    for (std::size_t i = g.begin; i < g.end; ++i) {
      batch_group.push_back(
          ctx.slots[w.base + w.group_slots[i]].workspace.get());
    }
    // Batched-scan allocations are attributed to the group's first frame
    // (the batch writes through that frame's scratch); group composition
    // is deterministic, so the attribution is too. The per-frame finish
    // tasks fan out only after this note, so no one reads the counter
    // concurrently.
    const std::uint64_t allocs_before = tensor::tensor_alloc_count();
    const std::uint64_t plan_hits_before = tensor::plan_cache_hit_count();
    const std::uint64_t plan_misses_before = tensor::plan_cache_miss_count();
    ctx.batcher->execute(g.selected, batch_group);
    batch_group.front()->note_tensor_allocs(static_cast<std::size_t>(
        tensor::tensor_alloc_count() - allocs_before));
    batch_group.front()->note_plan_cache(
        static_cast<std::size_t>(tensor::plan_cache_hit_count() -
                                 plan_hits_before),
        static_cast<std::size_t>(tensor::plan_cache_miss_count() -
                                 plan_misses_before));
    shared_ms = elapsed_ms(batch_start) / static_cast<double>(size);
  }
  for (std::size_t i = g.begin; i < g.end; ++i) {
    // Reading group_slots[i] here is safe: slot i's own finish task has not
    // been submitted yet, so its window_done count is still pending and the
    // driver cannot have freed the window.
    const std::size_t local = w.group_slots[i];
    ctx.pool->submit([c = &ctx, ww = &w, group_index, local,
                      shared_ms](std::size_t) {
      finish_frame(*c, *ww, group_index, local, shared_ms);
    });
  }
}

// Forms the window's phase-B groups from the (deterministic) selections in
// slot order and submits them. Runs exactly once per window, on whichever
// worker finished the window's last phase-A lane. batch_size reports the
// group's size whether or not batched execution is enabled — grouping
// depends only on the selections, so reports stay bitwise identical
// across the toggle.
void submit_phase_b(RunContext& ctx, WindowState& w) {
  std::map<std::size_t, std::vector<std::size_t>> grouped;
  for (std::size_t local = 0; local < w.frames.size(); ++local) {
    grouped[ctx.slots[w.base + local].selection].push_back(local);
  }
  w.groups.clear();
  w.group_slots.clear();
  w.batches = grouped.size();
  w.max_batch = 0;
  for (const auto& [selected, members] : grouped) {
    w.max_batch = std::max(w.max_batch, members.size());
    WindowState::Group g;
    g.selected = selected;
    g.begin = w.group_slots.size();
    g.end = g.begin + members.size();
    w.groups.push_back(g);
    w.group_slots.insert(w.group_slots.end(), members.begin(), members.end());
  }
  // From the first submission below, the window may complete the moment its
  // last task is handed to the pool — after that, `w` (driver stack) may be
  // gone. Loop bounds are therefore local copies; reads of `w` at the top of
  // an iteration are safe because that iteration's own completion counts are
  // still pending at that point.
  const std::size_t group_count = w.groups.size();
  for (std::size_t gi = 0; gi < group_count; ++gi) {
    const WindowState::Group g = w.groups[gi];
    if (ctx.batch_branches && g.end - g.begin > 1) {
      // One task runs the batched branch execution, then fans the
      // per-frame tails back out so a large group doesn't serialise the
      // window on one worker.
      ctx.pool->submit([c = &ctx, ww = &w, gi](std::size_t) {
        run_batch(*c, *ww, gi);
      });
    } else {
      for (std::size_t i = g.begin; i < g.end; ++i) {
        const std::size_t local = w.group_slots[i];
        ctx.pool->submit([c = &ctx, ww = &w, gi, local](std::size_t) {
          finish_frame(*c, *ww, gi, local, 0.0);
        });
      }
    }
  }
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
  // identical (GateFactory contract), so which worker runs a lane — or
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

  std::optional<exec::TemporalStemCache> stem_cache;
  if (config_.temporal_stem_cache) {
    exec::StemCacheConfig cache_config;
    // Eviction is driven deterministically by retain() before each
    // window's phase A; the capacity is sized so the FIFO backstop can
    // never fire between retains (at most `window` retained + `window`
    // new entries), keeping hit/miss counters worker-count invariant for
    // any config.
    cache_config.max_sequences =
        std::max(config_.stem_cache_sequences, 2 * config_.window);
    stem_cache.emplace(engine_.stems(), cache_config);
  }
  const exec::BranchBatcher batcher(engine_);

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
                 &pool,
                 &batcher,
                 stem_cache ? &*stem_cache : nullptr,
                 &gates,
                 slots.data(),
                 complexity,
                 trace,
                 shard_lane,
                 config_.keep_frame_results,
                 config_.share_channel_scans,
                 config_.batch_branches};

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
  // the report, retire the workspaces, trace the λs, and feed the
  // controllers. The single-threaded, window-ordered fold here is what
  // keeps the merged reports bitwise identical across every scheduling
  // toggle.
  const auto commit = [&](WindowState& w) {
    wait_event(w.window_done);
    obs::Span window_span(obs::Stage::kWindowUpdate);
    window_span.arg(w.params.lambda_energy);
    window_span.arg(w.params.lambda_latency);
    window_span.arg(static_cast<double>(w.frames.size()));
    report.exec.batches += w.batches;
    report.exec.max_batch = std::max(report.exec.max_batch, w.max_batch);
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
      slot.workspace.reset();
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
    // Chain phase A behind the previous window's phase A: consecutive
    // windows can share sequences, and per-sequence stem refreshes must
    // stay sequential in stream order.
    if (oldest < next) {
      ++windows_pipelined;
      wait_event(windows[(next - 1) % 2].select_done);
    }

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

    // Slots grouped by sequence, one task per sequence: the temporal stem
    // cache then sees each sequence's frames in stream order regardless of
    // worker count, which keeps hit/miss counters deterministic.
    w.lanes.clear();
    {
      std::unordered_map<std::uint64_t, std::size_t> lane_of;
      for (std::size_t local = 0; local < w.frames.size(); ++local) {
        auto [it, inserted] =
            lane_of.try_emplace(w.frames[local].sequence_id, w.lanes.size());
        if (inserted) w.lanes.emplace_back();
        w.lanes[it->second].push_back(local);
      }
    }

    // Deterministic cache eviction, moved ahead of the window's phase A
    // (no selection task is in flight here — the previous window's
    // select_done was waited above). A sequence still hits exactly when it
    // appeared in the previous window, same as retaining at the commit,
    // so the hit/miss counters are bitwise unchanged by the move.
    if (stem_cache) {
      std::vector<std::uint64_t> live;
      live.reserve(w.lanes.size());
      for (const std::vector<std::size_t>& lane : w.lanes) {
        live.push_back(w.frames[lane.front()].sequence_id);
      }
      stem_cache->retain(live);
    }

    w.batches = 0;
    w.max_batch = 0;
    w.select_done.reset(1);
    w.window_done.reset(w.frames.size());
    w.lanes_remaining.store(w.lanes.size(), std::memory_order_relaxed);
    for (std::size_t lane = 0; lane < w.lanes.size(); ++lane) {
      pool.submit([c = &ctx, ww = &w, lane](std::size_t worker) {
        run_lane(*c, *ww, lane, worker);
      });
    }
    ++next;
  }

  // Drain: fold the still-in-flight windows in stream order.
  while (oldest < next) {
    commit(windows[oldest % 2]);
    ++oldest;
  }

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
  report.exec.stem_cache_hits = 0;
  report.exec.stem_cache_misses = 0;
  report.exec.branch_runs = 0;
  report.exec.channel_scans_requested = 0;
  report.exec.channel_scans_unique = 0;
  report.exec.batched_frames = 0;
  report.exec.mean_batch = 0.0;
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
    if (stats.batch_size > 1) report.exec.batched_frames += 1;
    switch (stats.stem_source) {
      case exec::StemSource::kSkipped: report.exec.stems_skipped += 1; break;
      case exec::StemSource::kComputed: report.exec.stems_computed += 1; break;
      case exec::StemSource::kCacheHit: report.exec.stem_cache_hits += 1; break;
      case exec::StemSource::kCacheMiss:
        report.exec.stem_cache_misses += 1;
        break;
    }
    SceneReport& scene = scenes[stats.scene];
    scene.scene = stats.scene;
    scene.frames += 1;
    scene.mean_loss += stats.loss;
    scene.mean_energy_j += stats.energy_j;
    scene.mean_latency_ms += stats.latency_ms;
    scene.mean_batch += static_cast<double>(stats.batch_size);
    if (stats.stem_source == exec::StemSource::kCacheHit) {
      scene.stem_cache_hits += 1;
    } else if (stats.stem_source == exec::StemSource::kCacheMiss) {
      scene.stem_cache_misses += 1;
    }
  }
  if (report.frames > 0) {
    const auto n = static_cast<double>(report.frames);
    report.mean_energy_j = report.total_energy_j / n;
    report.mean_latency_ms /= n;
    report.mean_loss /= n;
    report.mean_wall_ms /= n;
  }
  if (report.exec.batches > 0) {
    report.exec.mean_batch = static_cast<double>(report.frames) /
                             static_cast<double>(report.exec.batches);
  }
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
    scene.mean_batch /= n;
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
  obs::Histogram& batch = metrics.histogram("modeled/batch_size");
  obs::Histogram& dedup = metrics.histogram("modeled/scan_dedup_ratio");
  obs::Histogram& wall = metrics.histogram("obs/wall_ms");
  for (const FrameStats& stats : report.frame_stats) {
    latency.record(stats.latency_ms);
    batch.record(static_cast<double>(stats.batch_size));
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
  metrics.add_counter("stem_cache_hits", report.exec.stem_cache_hits);
  metrics.add_counter("stem_cache_misses", report.exec.stem_cache_misses);
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
