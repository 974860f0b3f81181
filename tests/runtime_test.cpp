#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "core/engine.hpp"
#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "gating/loss_gate.hpp"
#include "runtime/budget.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"

namespace eco::runtime {
namespace {

const core::EcoFusionEngine& engine() {
  static core::EcoFusionEngine instance;
  return instance;
}

GateFactory knowledge_factory() {
  return [] {
    return std::make_unique<gating::KnowledgeGate>(
        engine().default_knowledge_table(), engine().config_space().size());
  };
}

GateFactory oracle_factory() {
  return
      [] { return std::make_unique<gating::LossBasedGate>(
               engine().config_space().size()); };
}

// An (untrained) Deep gate: deterministic fixed-seed weights, and — unlike
// the knowledge/oracle gates — it actually pulls the stem features F, so it
// exercises the temporal stem cache.
GateFactory deep_factory() {
  return [] {
    gating::LearnedGateConfig config;
    config.num_configs = engine().config_space().size();
    return std::make_unique<gating::LearnedGate>(config);
  };
}

StreamConfig small_stream() {
  StreamConfig config;
  config.sequence.length = 8;
  config.sequences_per_scene = 1;
  config.seed = 99;
  return config;
}

TEST(ThreadPoolTest, RunsEveryTaskAndReportsWorkerIds) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> sum{0};
  std::atomic<std::size_t> max_worker{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&](std::size_t worker) {
      sum += 1;
      std::size_t seen = max_worker.load();
      while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 100);
  EXPECT_LT(max_worker.load(), 3u);
}

TEST(FrameStreamTest, OrderIsDeterministicAndMixesScenes) {
  auto collect = [](const StreamConfig& config) {
    FrameStream stream(config);
    std::vector<StreamFrame> frames;
    while (auto frame = stream.next()) frames.push_back(std::move(*frame));
    return frames;
  };
  const StreamConfig config = small_stream();
  const auto a = collect(config);
  const auto b = collect(config);
  ASSERT_EQ(a.size(), dataset::kNumSceneTypes * config.sequence.length);
  ASSERT_EQ(a.size(), b.size());
  std::set<dataset::SceneType> scenes_in_first_round;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].scene, b[i].scene);
    EXPECT_EQ(a[i].sequence_id, b[i].sequence_id);
    EXPECT_EQ(a[i].frame.objects.size(), b[i].frame.objects.size());
    if (i < dataset::kNumSceneTypes) scenes_in_first_round.insert(a[i].scene);
  }
  // Round-robin lanes: the first |scenes| frames cover every scene type.
  EXPECT_EQ(scenes_in_first_round.size(), dataset::kNumSceneTypes);
}

TEST(FrameStreamTest, PrefetchDepthAndPoolNeverChangeTheStream) {
  // The stitch contract: inline generation (prefetch 0), a shallow pooled
  // window, and a window deeper than the lane count all deliver the
  // bitwise-identical stream, on pools of different sizes.
  StreamConfig base = small_stream();
  base.sequences_per_scene = 2;

  base.prefetch = 0;
  FrameStream inline_stream(base);
  std::vector<StreamFrame> expected;
  while (auto frame = inline_stream.next()) {
    expected.push_back(std::move(*frame));
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(inline_stream.blocked_pops(), 0u);  // no tasks to wait on

  for (std::size_t depth : {2u, 5u, 64u}) {
    for (std::size_t workers : {1u, 4u}) {
      StreamConfig config = base;
      config.prefetch = depth;
      ThreadPool pool(workers);
      FrameStream stream(config);
      stream.attach_pool(pool);
      std::size_t i = 0;
      while (auto frame = stream.next()) {
        ASSERT_LT(i, expected.size());
        EXPECT_EQ(frame->index, expected[i].index);
        EXPECT_EQ(frame->sequence_id, expected[i].sequence_id);
        EXPECT_EQ(frame->scene, expected[i].scene);
        EXPECT_EQ(frame->frame.id, expected[i].frame.id);
        for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
          EXPECT_TRUE(
              frame->frame.grid(kind).equals(expected[i].frame.grid(kind)))
              << "depth " << depth << " workers " << workers << " frame " << i;
        }
        ++i;
      }
      EXPECT_EQ(i, expected.size());
    }
  }
}

TEST(FrameStreamTest, SeverityJitterVariesPerSequenceButIsStable) {
  StreamConfig config = small_stream();
  config.sequences_per_scene = 3;
  const auto a = sequence_params(config, dataset::SceneType::kRain, 0);
  const auto b = sequence_params(config, dataset::SceneType::kRain, 1);
  const auto a2 = sequence_params(config, dataset::SceneType::kRain, 0);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.vehicle_speed, b.vehicle_speed);
  EXPECT_EQ(a.seed, a2.seed);
  EXPECT_EQ(a.vehicle_speed, a2.vehicle_speed);
}

TEST(BudgetControllerTest, RaisesLambdaOverBudgetLowersUnder) {
  BudgetConfig config;
  config.target_j_per_frame = 2.0;
  config.initial_lambda = 0.5f;
  BudgetController controller(config);
  controller.observe(3.0);  // 50% over budget
  EXPECT_GT(controller.lambda(), 0.5f);
  const float raised = controller.lambda();
  controller.observe(1.0);  // 50% under budget
  EXPECT_LT(controller.lambda(), raised);
}

TEST(BudgetControllerTest, LambdaStaysClamped) {
  BudgetConfig config;
  config.target_j_per_frame = 1.0;
  config.initial_lambda = 0.9f;
  BudgetController controller(config);
  for (int i = 0; i < 50; ++i) controller.observe(10.0);
  EXPECT_LE(controller.lambda(), config.lambda_max);
  for (int i = 0; i < 100; ++i) controller.observe(0.0);
  EXPECT_GE(controller.lambda(), config.lambda_min);
}

TEST(DeadlineControllerTest, RaisesLambdaOverDeadlineLowersUnder) {
  DeadlineConfig config;
  config.target_ms_per_frame = 40.0;
  config.initial_lambda = 0.5f;
  DeadlineController controller(config);
  controller.observe(60.0);  // 50% over deadline
  EXPECT_GT(controller.lambda(), 0.5f);
  const float raised = controller.lambda();
  controller.observe(20.0);  // 50% under deadline
  EXPECT_LT(controller.lambda(), raised);
}

TEST(DeadlineControllerTest, LambdaStaysClamped) {
  DeadlineConfig config;
  config.target_ms_per_frame = 10.0;
  config.initial_lambda = 0.9f;
  DeadlineController controller(config);
  for (int i = 0; i < 50; ++i) controller.observe(100.0);
  EXPECT_LE(controller.lambda(), config.lambda_max);
  for (int i = 0; i < 100; ++i) controller.observe(0.0);
  EXPECT_GE(controller.lambda(), config.lambda_min);
}

TEST(ComposeControlWeightsTest, ShrinksLowerPriorityWeightOnly) {
  // No contention: both pass through.
  auto [e0, l0] = compose_control_weights(0.3f, 0.4f,
                                          ControlPriority::kDeadlineFirst);
  EXPECT_FLOAT_EQ(e0, 0.3f);
  EXPECT_FLOAT_EQ(l0, 0.4f);
  // Oversubscribed, deadline first: λ_L keeps its ask, λ_E yields.
  auto [e1, l1] = compose_control_weights(0.8f, 0.7f,
                                          ControlPriority::kDeadlineFirst);
  EXPECT_FLOAT_EQ(l1, 0.7f);
  EXPECT_FLOAT_EQ(e1, 0.3f);
  // Oversubscribed, energy first: λ_E keeps its ask, λ_L yields.
  auto [e2, l2] = compose_control_weights(0.8f, 0.7f,
                                          ControlPriority::kEnergyFirst);
  EXPECT_FLOAT_EQ(e2, 0.8f);
  EXPECT_FLOAT_EQ(l2, 0.2f);
}

PipelineReport run_pipeline(std::size_t workers, const GateFactory& gates,
                            std::optional<BudgetConfig> budget = std::nullopt,
                            StreamConfig stream_config = small_stream()) {
  PipelineConfig config;
  config.workers = workers;
  config.window = 16;
  config.budget = budget;
  config.joint.gamma = 2.0f;  // admit several candidates → λ_E has leverage
  StreamingPipeline pipeline(engine(), config);
  FrameStream stream(stream_config);
  return pipeline.run(stream, gates);
}

// The ISSUE's headline contract: N-thread output is bitwise identical to
// the 1-thread run on the same seeded stream.
TEST(StreamingPipelineTest, DeterministicAcrossWorkerCounts) {
  const PipelineReport one = run_pipeline(1, knowledge_factory());
  const PipelineReport four = run_pipeline(4, knowledge_factory());

  ASSERT_EQ(one.frames, four.frames);
  ASSERT_EQ(one.frame_stats.size(), four.frame_stats.size());
  for (std::size_t i = 0; i < one.frame_stats.size(); ++i) {
    const FrameStats& a = one.frame_stats[i];
    const FrameStats& b = four.frame_stats[i];
    EXPECT_EQ(a.stream_index, b.stream_index);
    EXPECT_EQ(a.scene, b.scene);
    EXPECT_EQ(a.config_index, b.config_index);
    EXPECT_EQ(a.loss, b.loss);          // bitwise
    EXPECT_EQ(a.energy_j, b.energy_j);  // bitwise
    EXPECT_EQ(a.detections, b.detections);
  }
  EXPECT_EQ(one.total_energy_j, four.total_energy_j);
  EXPECT_EQ(one.mean_loss, four.mean_loss);
  EXPECT_EQ(one.map, four.map);
  EXPECT_EQ(one.total_detections, four.total_detections);
  ASSERT_EQ(one.per_scene.size(), four.per_scene.size());
  for (std::size_t s = 0; s < one.per_scene.size(); ++s) {
    EXPECT_EQ(one.per_scene[s].scene, four.per_scene[s].scene);
    EXPECT_EQ(one.per_scene[s].frames, four.per_scene[s].frames);
    EXPECT_EQ(one.per_scene[s].mean_energy_j, four.per_scene[s].mean_energy_j);
    EXPECT_EQ(one.per_scene[s].map, four.per_scene[s].map);
  }
}

TEST(StreamingPipelineTest, ReportAggregatesAreConsistent) {
  const PipelineReport report = run_pipeline(2, knowledge_factory());
  ASSERT_GT(report.frames, 0u);
  double energy = 0.0;
  std::size_t scene_frames = 0;
  for (const FrameStats& stats : report.frame_stats) energy += stats.energy_j;
  for (const SceneReport& scene : report.per_scene) {
    scene_frames += scene.frames;
    EXPECT_GT(scene.mean_energy_j, 0.0);
  }
  EXPECT_DOUBLE_EQ(report.total_energy_j, energy);
  EXPECT_EQ(scene_frames, report.frames);
  EXPECT_EQ(report.per_scene.size(), dataset::kNumSceneTypes);
  EXPECT_GT(report.map, 0.0);
  EXPECT_GT(report.frames_per_second, 0.0);
  // Modeled latency drives the deterministic aggregates; wall-clock is
  // reported alongside, per frame, outside the determinism contract.
  double model_ms = 0.0;
  for (const FrameStats& stats : report.frame_stats) {
    EXPECT_GE(stats.wall_ms, 0.0);
    model_ms += stats.latency_ms;
  }
  EXPECT_DOUBLE_EQ(report.mean_latency_ms,
                   model_ms / static_cast<double>(report.frames));
  EXPECT_GT(report.mean_wall_ms, 0.0);
  // Frame results are retained for downstream aggregation.
  ASSERT_EQ(report.frame_results.size(), report.frame_stats.size());
}

// Closed-loop λ_E holds a joules-per-frame budget on a mixed stream: the
// pipeline converges to within 10% of a target chosen strictly between the
// greenest and dearest operating points.
TEST(StreamingPipelineTest, BudgetControllerConvergesToTarget) {
  StreamConfig stream_config = small_stream();
  stream_config.sequence.length = 10;
  stream_config.sequences_per_scene = 2;  // 160 frames → 10 control windows

  // Calibrate the achievable energy range with fixed λ_E runs.
  auto fixed_lambda_energy = [&](float lambda) {
    PipelineConfig config;
    config.workers = 2;
    config.window = 16;
    config.joint.gamma = 2.0f;
    config.joint.lambda_energy = lambda;
    config.keep_frame_results = false;
    StreamingPipeline pipeline(engine(), config);
    FrameStream stream(stream_config);  // calibrate on the budget run's stream
    return pipeline.run(stream, oracle_factory()).mean_energy_j;
  };
  const double dearest = fixed_lambda_energy(0.0f);
  const double greenest = fixed_lambda_energy(1.0f);
  ASSERT_LT(greenest, dearest);  // λ_E must have real leverage

  BudgetConfig budget;
  budget.target_j_per_frame = 0.5 * (greenest + dearest);
  budget.initial_lambda = 0.0f;
  budget.gain = 0.5f;
  budget.max_step = 0.25f;

  const PipelineReport report =
      run_pipeline(3, oracle_factory(), budget, stream_config);
  ASSERT_GE(report.lambda_trace.size(), 6u);

  // Steady state: mean energy over the final 4 control windows.
  const std::size_t window = 16;
  const std::size_t tail = 4 * window;
  ASSERT_GE(report.frame_stats.size(), tail);
  double tail_energy = 0.0;
  for (std::size_t i = report.frame_stats.size() - tail;
       i < report.frame_stats.size(); ++i) {
    tail_energy += report.frame_stats[i].energy_j;
  }
  const double steady = tail_energy / static_cast<double>(tail);
  EXPECT_NEAR(steady, budget.target_j_per_frame,
              0.10 * budget.target_j_per_frame);

  // And the trace itself is deterministic w.r.t. worker count.
  const PipelineReport replay =
      run_pipeline(1, oracle_factory(), budget, stream_config);
  ASSERT_EQ(report.lambda_trace.size(), replay.lambda_trace.size());
  for (std::size_t i = 0; i < report.lambda_trace.size(); ++i) {
    EXPECT_EQ(report.lambda_trace[i], replay.lambda_trace[i]);
  }
  EXPECT_EQ(report.total_energy_j, replay.total_energy_j);
}

// Mirror of the budget-convergence test for the deadline loop: closed-loop
// λ_L holds a modeled-ms-per-frame target chosen strictly between the
// fastest and slowest operating points, converging to within 5%.
TEST(StreamingPipelineTest, DeadlineControllerConvergesToTarget) {
  StreamConfig stream_config = small_stream();
  stream_config.sequence.length = 10;
  stream_config.sequences_per_scene = 2;  // 160 frames → 10 control windows

  // Calibrate the achievable latency range with fixed λ_L runs.
  auto fixed_lambda_latency = [&](float lambda) {
    PipelineConfig config;
    config.workers = 2;
    config.window = 16;
    config.joint.gamma = 2.0f;
    config.joint.lambda_energy = 0.0f;
    config.joint.lambda_latency = lambda;
    config.keep_frame_results = false;
    StreamingPipeline pipeline(engine(), config);
    FrameStream stream(stream_config);
    return pipeline.run(stream, oracle_factory()).mean_latency_ms;
  };
  const double slowest = fixed_lambda_latency(0.0f);
  const double fastest = fixed_lambda_latency(1.0f);
  ASSERT_LT(fastest, slowest);  // λ_L must have real leverage

  DeadlineConfig deadline;
  deadline.target_ms_per_frame = 0.5 * (fastest + slowest);
  deadline.initial_lambda = 0.0f;
  deadline.gain = 0.5f;
  deadline.max_step = 0.25f;

  auto run_deadline = [&](std::size_t workers) {
    PipelineConfig config;
    config.workers = workers;
    config.window = 16;
    config.joint.gamma = 2.0f;
    config.joint.lambda_energy = 0.0f;
    config.deadline = deadline;
    StreamingPipeline pipeline(engine(), config);
    FrameStream stream(stream_config);
    return pipeline.run(stream, oracle_factory());
  };
  const PipelineReport report = run_deadline(3);
  ASSERT_GE(report.deadline_trace.size(), 6u);

  // Steady state: mean modeled latency over the final 4 control windows.
  const std::size_t window = 16;
  const std::size_t tail = 4 * window;
  ASSERT_GE(report.frame_stats.size(), tail);
  double tail_ms = 0.0;
  for (std::size_t i = report.frame_stats.size() - tail;
       i < report.frame_stats.size(); ++i) {
    tail_ms += report.frame_stats[i].latency_ms;
  }
  const double steady = tail_ms / static_cast<double>(tail);
  EXPECT_NEAR(steady, deadline.target_ms_per_frame,
              0.05 * deadline.target_ms_per_frame);

  // The λ_L trajectory is worker-count invariant (it observes *modeled*
  // latency, never wall-clock).
  const PipelineReport replay = run_deadline(1);
  ASSERT_EQ(report.deadline_trace.size(), replay.deadline_trace.size());
  for (std::size_t i = 0; i < report.deadline_trace.size(); ++i) {
    EXPECT_EQ(report.deadline_trace[i], replay.deadline_trace[i]);
  }
  EXPECT_EQ(report.mean_latency_ms, replay.mean_latency_ms);
  for (const FrameStats& stats : report.frame_stats) {
    EXPECT_EQ(stats.lambda_latency,
              report.deadline_trace[stats.stream_index / window]);
  }
}

// Energy budget and deadline running simultaneously: the applied weights
// never oversubscribe the scoring budget, both traces advance in lockstep,
// and the composed trajectories stay worker-count deterministic.
TEST(StreamingPipelineTest, BudgetAndDeadlineControllersCompose) {
  StreamConfig stream_config = small_stream();
  stream_config.sequence.length = 10;
  stream_config.sequences_per_scene = 2;

  BudgetConfig budget;
  budget.target_j_per_frame = 1.8;
  budget.initial_lambda = 0.0f;
  budget.gain = 0.5f;
  budget.max_step = 0.25f;
  DeadlineConfig deadline;
  deadline.target_ms_per_frame = 38.0;
  deadline.initial_lambda = 0.0f;
  deadline.gain = 0.5f;
  deadline.max_step = 0.25f;

  auto run_both = [&](std::size_t workers) {
    PipelineConfig config;
    config.workers = workers;
    config.window = 16;
    config.joint.gamma = 2.0f;
    config.budget = budget;
    config.deadline = deadline;
    config.priority = ControlPriority::kDeadlineFirst;
    StreamingPipeline pipeline(engine(), config);
    FrameStream stream(stream_config);
    return pipeline.run(stream, oracle_factory());
  };
  const PipelineReport report = run_both(2);
  ASSERT_EQ(report.lambda_trace.size(), report.deadline_trace.size());
  ASSERT_GT(report.lambda_trace.size(), 0u);
  for (std::size_t i = 0; i < report.lambda_trace.size(); ++i) {
    EXPECT_GE(report.lambda_trace[i], 0.0f);
    EXPECT_GE(report.deadline_trace[i], 0.0f);
    EXPECT_LE(report.lambda_trace[i] + report.deadline_trace[i], 1.0f);
  }
  const PipelineReport replay = run_both(1);
  EXPECT_EQ(report.total_energy_j, replay.total_energy_j);
  EXPECT_EQ(report.mean_latency_ms, replay.mean_latency_ms);
  ASSERT_EQ(report.lambda_trace.size(), replay.lambda_trace.size());
  for (std::size_t i = 0; i < report.lambda_trace.size(); ++i) {
    EXPECT_EQ(report.lambda_trace[i], replay.lambda_trace[i]);
    EXPECT_EQ(report.deadline_trace[i], replay.deadline_trace[i]);
  }
}

PipelineReport run_pipeline_exec(std::size_t workers, const GateFactory& gates,
                                 bool cache, bool batch) {
  PipelineConfig config;
  config.workers = workers;
  config.window = 16;
  config.joint.gamma = 2.0f;
  config.temporal_stem_cache = cache;
  config.batch_branches = batch;
  StreamingPipeline pipeline(engine(), config);
  FrameStream stream(small_stream());
  return pipeline.run(stream, gates);
}

/// Bitwise equality of everything the determinism contract covers.
/// `compare_stem_source` is off when comparing cache-on vs cache-off runs
/// (the cache changes *how* F was obtained, never its value).
void expect_reports_equal(const PipelineReport& a, const PipelineReport& b,
                          bool compare_stem_source) {
  ASSERT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.total_detections, b.total_detections);
  EXPECT_EQ(a.final_lambda, b.final_lambda);
  EXPECT_EQ(a.final_lambda_latency, b.final_lambda_latency);
  ASSERT_EQ(a.lambda_trace.size(), b.lambda_trace.size());
  for (std::size_t i = 0; i < a.lambda_trace.size(); ++i) {
    EXPECT_EQ(a.lambda_trace[i], b.lambda_trace[i]);
  }
  ASSERT_EQ(a.deadline_trace.size(), b.deadline_trace.size());
  for (std::size_t i = 0; i < a.deadline_trace.size(); ++i) {
    EXPECT_EQ(a.deadline_trace[i], b.deadline_trace[i]);
  }
  ASSERT_EQ(a.frame_stats.size(), b.frame_stats.size());
  for (std::size_t i = 0; i < a.frame_stats.size(); ++i) {
    const FrameStats& x = a.frame_stats[i];
    const FrameStats& y = b.frame_stats[i];
    EXPECT_EQ(x.stream_index, y.stream_index);
    EXPECT_EQ(x.scene, y.scene);
    EXPECT_EQ(x.config_index, y.config_index);
    EXPECT_EQ(x.loss, y.loss);          // bitwise
    EXPECT_EQ(x.energy_j, y.energy_j);  // bitwise
    EXPECT_EQ(x.latency_ms, y.latency_ms);
    EXPECT_EQ(x.lambda_energy, y.lambda_energy);
    EXPECT_EQ(x.lambda_latency, y.lambda_latency);
    EXPECT_EQ(x.detections, y.detections);
    EXPECT_EQ(x.batch_size, y.batch_size);
    EXPECT_EQ(x.branch_runs, y.branch_runs);
    EXPECT_EQ(x.channel_scans_requested, y.channel_scans_requested);
    EXPECT_EQ(x.channel_scans_unique, y.channel_scans_unique);
    if (compare_stem_source) {
      EXPECT_EQ(x.stem_source, y.stem_source);
    }
  }
  ASSERT_EQ(a.per_scene.size(), b.per_scene.size());
  for (std::size_t s = 0; s < a.per_scene.size(); ++s) {
    EXPECT_EQ(a.per_scene[s].scene, b.per_scene[s].scene);
    EXPECT_EQ(a.per_scene[s].frames, b.per_scene[s].frames);
    EXPECT_EQ(a.per_scene[s].mean_loss, b.per_scene[s].mean_loss);
    EXPECT_EQ(a.per_scene[s].mean_energy_j, b.per_scene[s].mean_energy_j);
    EXPECT_EQ(a.per_scene[s].map, b.per_scene[s].map);
    EXPECT_EQ(a.per_scene[s].mean_batch, b.per_scene[s].mean_batch);
    if (compare_stem_source) {
      EXPECT_EQ(a.per_scene[s].stem_cache_hits, b.per_scene[s].stem_cache_hits);
      EXPECT_EQ(a.per_scene[s].stem_cache_misses,
                b.per_scene[s].stem_cache_misses);
    }
  }
  EXPECT_EQ(a.exec.branch_runs, b.exec.branch_runs);
  EXPECT_EQ(a.exec.channel_scans_requested, b.exec.channel_scans_requested);
  EXPECT_EQ(a.exec.channel_scans_unique, b.exec.channel_scans_unique);
  EXPECT_EQ(a.exec.batches, b.exec.batches);
  EXPECT_EQ(a.exec.batched_frames, b.exec.batched_frames);
  EXPECT_EQ(a.exec.max_batch, b.exec.max_batch);
  EXPECT_EQ(a.exec.mean_batch, b.exec.mean_batch);
  if (compare_stem_source) {
    EXPECT_EQ(a.exec.stems_skipped, b.exec.stems_skipped);
    EXPECT_EQ(a.exec.stems_computed, b.exec.stems_computed);
    EXPECT_EQ(a.exec.stem_cache_hits, b.exec.stem_cache_hits);
    EXPECT_EQ(a.exec.stem_cache_misses, b.exec.stem_cache_misses);
  }
}

// The temporal stem cache is a pure optimization: reports with it on and
// off are bitwise identical (a Deep gate pulls F every frame, so the cache
// is genuinely on the path here).
TEST(StreamingPipelineTest, StemCacheOnOffReportsBitwiseIdentical) {
  const PipelineReport off =
      run_pipeline_exec(2, deep_factory(), /*cache=*/false, /*batch=*/true);
  const PipelineReport on =
      run_pipeline_exec(2, deep_factory(), /*cache=*/true, /*batch=*/true);
  expect_reports_equal(off, on, /*compare_stem_source=*/false);
  // And the cache really engaged: one miss per sequence, hits elsewhere.
  EXPECT_EQ(on.exec.stem_cache_misses, dataset::kNumSceneTypes);
  EXPECT_EQ(on.exec.stem_cache_hits, on.frames - dataset::kNumSceneTypes);
  EXPECT_EQ(off.exec.stems_computed, off.frames);
}

// So is batched branch execution.
TEST(StreamingPipelineTest, BatchOnOffReportsBitwiseIdentical) {
  const PipelineReport off =
      run_pipeline_exec(2, knowledge_factory(), /*cache=*/true,
                        /*batch=*/false);
  const PipelineReport on =
      run_pipeline_exec(2, knowledge_factory(), /*cache=*/true,
                        /*batch=*/true);
  expect_reports_equal(off, on, /*compare_stem_source=*/true);
  EXPECT_GT(on.exec.batched_frames, 0u);
  EXPECT_GT(on.exec.max_batch, 1u);
}

// 1-vs-N worker determinism with caching AND batching enabled, including
// every exec counter.
TEST(StreamingPipelineTest, DeterministicAcrossWorkersWithCacheAndBatch) {
  const PipelineReport one =
      run_pipeline_exec(1, deep_factory(), /*cache=*/true, /*batch=*/true);
  const PipelineReport four =
      run_pipeline_exec(4, deep_factory(), /*cache=*/true, /*batch=*/true);
  expect_reports_equal(one, four, /*compare_stem_source=*/true);
}

// Even with a stem-cache capacity far below the live sequence count,
// eviction stays deterministic (it happens at window barriers, from stream
// order alone) — counters must not depend on worker timing.
TEST(StreamingPipelineTest, TinyStemCacheStaysDeterministic) {
  auto run = [](std::size_t workers) {
    PipelineConfig config;
    config.workers = workers;
    config.window = 16;
    config.joint.gamma = 2.0f;
    config.stem_cache_sequences = 1;  // pipeline floors this at 2x window
    StreamingPipeline pipeline(engine(), config);
    FrameStream stream(small_stream());
    return pipeline.run(stream, deep_factory());
  };
  const PipelineReport one = run(1);
  const PipelineReport four = run(4);
  expect_reports_equal(one, four, /*compare_stem_source=*/true);
  EXPECT_GT(one.exec.stem_cache_hits, 0u);
}

TEST(StreamingPipelineTest, ExecCountersAreConsistent) {
  const PipelineReport report =
      run_pipeline_exec(2, knowledge_factory(), /*cache=*/true,
                        /*batch=*/true);
  ASSERT_GT(report.frames, 0u);
  // The knowledge gate never pulls F: stems skipped on every frame.
  EXPECT_EQ(report.exec.stems_skipped, report.frames);
  EXPECT_EQ(report.exec.stem_cache_hits, 0u);
  EXPECT_EQ(report.exec.stem_cache_misses, 0u);
  EXPECT_GT(report.exec.branch_runs, 0u);
  ASSERT_GT(report.exec.batches, 0u);
  EXPECT_DOUBLE_EQ(report.exec.mean_batch,
                   static_cast<double>(report.frames) /
                       static_cast<double>(report.exec.batches));
  std::size_t batched = 0;
  double batch_sum = 0.0;
  for (const FrameStats& stats : report.frame_stats) {
    EXPECT_GE(stats.batch_size, 1u);
    EXPECT_GT(stats.branch_runs, 0u);
    if (stats.batch_size > 1) ++batched;
    batch_sum += static_cast<double>(stats.batch_size);
  }
  EXPECT_EQ(report.exec.batched_frames, batched);
  // Per-scene mean batch sizes aggregate the same per-frame data.
  double scene_batch_sum = 0.0;
  for (const SceneReport& scene : report.per_scene) {
    scene_batch_sum += scene.mean_batch * static_cast<double>(scene.frames);
  }
  EXPECT_NEAR(scene_batch_sum, batch_sum, 1e-9);
}

}  // namespace
}  // namespace eco::runtime
