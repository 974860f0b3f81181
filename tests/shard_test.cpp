#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "gating/loss_gate.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend.hpp"

namespace eco::runtime {
namespace {

ShardGateFactory knowledge_factory() {
  return [](const core::EcoFusionEngine& engine) {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  };
}

// An (untrained) Deep gate with deterministic fixed-seed weights; it pulls
// the stem features F, so the stems run on every frame of every shard.
ShardGateFactory deep_factory() {
  return [](const core::EcoFusionEngine& engine) {
    gating::LearnedGateConfig config;
    config.num_configs = engine.config_space().size();
    return std::make_unique<gating::LearnedGate>(config);
  };
}

ShardGateFactory oracle_factory() {
  return [](const core::EcoFusionEngine& engine) {
    return std::make_unique<gating::LossBasedGate>(
        engine.config_space().size());
  };
}

StreamConfig small_stream() {
  StreamConfig config;
  config.sequence.length = 8;
  config.sequences_per_scene = 1;
  config.seed = 99;
  return config;
}

ShardedReport run_sharded(std::size_t shards, std::size_t workers,
                          const ShardGateFactory& gates,
                          StreamConfig stream_config = small_stream(),
                          std::optional<BudgetConfig> budget = std::nullopt,
                          std::optional<DeadlineConfig> deadline =
                              std::nullopt,
                          bool share_channel_scans = true,
                          tensor::Backend backend = tensor::Backend::kAuto) {
  ShardedConfig config;
  config.shards = shards;
  config.engine.backend = backend;
  config.pipeline.workers = workers;
  config.pipeline.window = 16;
  config.pipeline.joint.gamma = 2.0f;
  config.pipeline.budget = budget;
  config.pipeline.deadline = deadline;
  config.pipeline.share_channel_scans = share_channel_scans;
  ShardedPipeline pipeline(config);
  return pipeline.run(stream_config, gates);
}

/// Bitwise equality of the merged-report fields the sharded determinism
/// contract covers. `compare_lambdas` is off when closed-loop controllers
/// run (per-shard trajectories).
/// `compare_scan_unique` is off when comparing channel-sharing on vs off
/// runs: the unique-scan count is the one field the toggle legitimately
/// moves (requested counts must still match bitwise).
void expect_merged_equal(const PipelineReport& a, const PipelineReport& b,
                         bool compare_lambdas = true,
                         bool compare_scan_unique = true) {
  ASSERT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.total_detections, b.total_detections);
  ASSERT_EQ(a.frame_stats.size(), b.frame_stats.size());
  for (std::size_t i = 0; i < a.frame_stats.size(); ++i) {
    const FrameStats& x = a.frame_stats[i];
    const FrameStats& y = b.frame_stats[i];
    EXPECT_EQ(x.stream_index, y.stream_index);
    EXPECT_EQ(x.scene, y.scene);
    EXPECT_EQ(x.config_index, y.config_index);
    EXPECT_EQ(x.loss, y.loss);              // bitwise
    EXPECT_EQ(x.energy_j, y.energy_j);      // bitwise
    EXPECT_EQ(x.latency_ms, y.latency_ms);  // bitwise
    EXPECT_EQ(x.detections, y.detections);
    EXPECT_EQ(x.stem_source, y.stem_source);
    EXPECT_EQ(x.branch_runs, y.branch_runs);
    EXPECT_EQ(x.channel_scans_requested, y.channel_scans_requested);
    if (compare_scan_unique) {
      EXPECT_EQ(x.channel_scans_unique, y.channel_scans_unique);
    }
    if (compare_lambdas) {
      EXPECT_EQ(x.lambda_energy, y.lambda_energy);
      EXPECT_EQ(x.lambda_latency, y.lambda_latency);
    }
  }
  ASSERT_EQ(a.per_scene.size(), b.per_scene.size());
  for (std::size_t s = 0; s < a.per_scene.size(); ++s) {
    EXPECT_EQ(a.per_scene[s].scene, b.per_scene[s].scene);
    EXPECT_EQ(a.per_scene[s].frames, b.per_scene[s].frames);
    EXPECT_EQ(a.per_scene[s].mean_loss, b.per_scene[s].mean_loss);
    EXPECT_EQ(a.per_scene[s].mean_energy_j, b.per_scene[s].mean_energy_j);
    EXPECT_EQ(a.per_scene[s].mean_latency_ms, b.per_scene[s].mean_latency_ms);
    EXPECT_EQ(a.per_scene[s].map, b.per_scene[s].map);
  }
  EXPECT_EQ(a.exec.stems_skipped, b.exec.stems_skipped);
  EXPECT_EQ(a.exec.stems_computed, b.exec.stems_computed);
  EXPECT_EQ(a.exec.stem_cache_hits, b.exec.stem_cache_hits);
  EXPECT_EQ(a.exec.stem_cache_misses, b.exec.stem_cache_misses);
  EXPECT_EQ(a.exec.branch_runs, b.exec.branch_runs);
  EXPECT_EQ(a.exec.channel_scans_requested, b.exec.channel_scans_requested);
  if (compare_scan_unique) {
    EXPECT_EQ(a.exec.channel_scans_unique, b.exec.channel_scans_unique);
  }
}

TEST(ShardOfTest, IsDeterministicAndInRange) {
  for (std::uint64_t id : {0ull, 1ull, 99ull, 0xdeadbeefull}) {
    EXPECT_EQ(shard_of(id, 1), 0u);
    for (std::size_t count : {2u, 3u, 4u, 7u}) {
      const std::size_t shard = shard_of(id, count);
      EXPECT_LT(shard, count);
      EXPECT_EQ(shard, shard_of(id, count));  // stable
    }
  }
}

// A sharded stream partitions the unsharded stream exactly: every shard
// delivers only its own sequences, global indices survive, and the union
// over shards is the full stream.
TEST(ShardedStreamTest, ShardsPartitionTheStreamWithGlobalIndices) {
  const StreamConfig base = small_stream();
  auto collect = [](StreamConfig config) {
    FrameStream stream(config);
    std::vector<StreamFrame> frames;
    while (auto frame = stream.next()) frames.push_back(std::move(*frame));
    return frames;
  };
  const std::vector<StreamFrame> full = collect(base);
  ASSERT_FALSE(full.empty());

  const std::size_t shards = 3;
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    StreamConfig config = base;
    config.shard_count = shards;
    config.shard_index = s;
    const std::vector<StreamFrame> part = collect(config);
    FrameStream probe(config);
    EXPECT_EQ(probe.total_frames(), part.size());
    std::size_t previous = 0;
    bool first = true;
    for (const StreamFrame& frame : part) {
      EXPECT_EQ(shard_of(frame.sequence_id, shards), s);
      // Global order preserved within the shard.
      if (!first) {
        EXPECT_GT(frame.index, previous);
      }
      previous = frame.index;
      first = false;
      // The frame is the unsharded stream's frame at that index, verbatim.
      ASSERT_LT(frame.index, full.size());
      EXPECT_EQ(full[frame.index].sequence_id, frame.sequence_id);
      EXPECT_EQ(full[frame.index].scene, frame.scene);
      EXPECT_EQ(full[frame.index].frame.id, frame.frame.id);
      EXPECT_TRUE(seen.insert(frame.index).second);  // delivered once
    }
    total += part.size();
  }
  EXPECT_EQ(total, full.size());  // no frame lost, none duplicated
}

// Sequences owned by *other* shards must still advance the global index —
// the precomputed stitch schedule has to skip them without generating them.
// Odd sequences_per_scene makes ownership uneven across shard counts, which
// is exactly where an off-by-one in the round arithmetic would surface.
TEST(ShardedStreamTest, NonOwnedLanesAdvanceGlobalIndexForOddSequenceCounts) {
  StreamConfig base = small_stream();
  base.sequences_per_scene = 3;

  // The unsharded stream is the schedule: indices are exactly 0..N-1.
  FrameStream full_stream(base);
  std::vector<StreamFrame> full;
  while (auto frame = full_stream.next()) full.push_back(std::move(*frame));
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].index, i);
  }

  for (std::size_t shards : {1u, 2u, 3u}) {
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      StreamConfig config = base;
      config.shard_count = shards;
      config.shard_index = s;
      FrameStream stream(config);
      while (auto frame = stream.next()) {
        ASSERT_LT(frame->index, full.size());
        const StreamFrame& expected = full[frame->index];
        EXPECT_EQ(expected.sequence_id, frame->sequence_id);
        EXPECT_EQ(expected.scene, frame->scene);
        EXPECT_EQ(expected.frame.id, frame->frame.id);
        EXPECT_TRUE(expected.frame.grid(dataset::SensorKind::kLidar)
                        .equals(frame->frame.grid(dataset::SensorKind::kLidar)));
        EXPECT_TRUE(seen.insert(frame->index).second);
        ++total;
      }
    }
    // Union over shards is the full stream: no frame lost, none duplicated.
    EXPECT_EQ(total, full.size()) << shards << " shards";
  }
}

// The headline contract: with fixed scoring weights the merged report is
// bitwise identical at 1/2/4 shards × 1/4 workers, with either kernel
// backend pinned explicitly, and with inline (prefetch 0) generation. The
// Deep gate pulls F every frame, so the stem convolutions are on the path.
TEST(ShardedPipelineTest, MergedReportBitwiseInvariantAcrossShardsAndWorkers) {
  std::vector<ShardedReport> reports;
  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t workers : {1u, 4u}) {
      reports.push_back(run_sharded(shards, workers, deep_factory()));
    }
  }
  const PipelineReport& reference = reports.front().merged;
  ASSERT_GT(reference.frames, 0u);
  // Merged stream order restored exactly: index i holds stream index i.
  for (std::size_t i = 0; i < reference.frame_stats.size(); ++i) {
    EXPECT_EQ(reference.frame_stats[i].stream_index, i);
  }
  for (std::size_t r = 1; r < reports.size(); ++r) {
    expect_merged_equal(reference, reports[r].merged);
  }
  // An explicitly constructed backend overrides ECO_BACKEND, so whichever
  // backend the environment selected for `reference`, one of these runs
  // crosses backends.
  for (tensor::Backend backend :
       {tensor::Backend::kReference, tensor::Backend::kSimd}) {
    SCOPED_TRACE(tensor::backend_name(backend));
    expect_merged_equal(reference,
                        run_sharded(1, 4, deep_factory(), small_stream(),
                                    std::nullopt, std::nullopt,
                                    /*share_channel_scans=*/true, backend)
                            .merged);
  }
  // Inline generation on the consumer thread renders the identical stream.
  StreamConfig inline_stream = small_stream();
  inline_stream.prefetch = 0;
  for (std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    expect_merged_equal(
        reference, run_sharded(shards, 4, deep_factory(), inline_stream).merged);
  }
  // Every frame of every shard ran the stems (pinned equal across shard
  // counts by expect_merged_equal above; spot-check the absolute value).
  EXPECT_EQ(reference.exec.stems_computed, reference.frames);
}

// Channel-scan sharing is bitwise invisible end to end: across 1/2 shards
// × 1/4 workers × sharing on/off, merged reports are identical in every
// contract field — the unique-scan counter is the only one the toggle may
// move, and on this stream (whose fog/snow lanes select the 7-channel/
// 4-unique ensemble configuration) sharing genuinely dedups while the
// unshared path pays full price.
TEST(ShardedPipelineTest, ChannelShareOnOffBitwiseInvariantAcrossTopologies) {
  std::vector<ShardedReport> shared_runs;
  std::vector<ShardedReport> unshared_runs;
  for (std::size_t shards : {1u, 2u}) {
    for (std::size_t workers : {1u, 4u}) {
      shared_runs.push_back(run_sharded(shards, workers, knowledge_factory(),
                                        small_stream(), std::nullopt,
                                        std::nullopt,
                                        /*share_channel_scans=*/true));
      unshared_runs.push_back(run_sharded(shards, workers, knowledge_factory(),
                                          small_stream(), std::nullopt,
                                          std::nullopt,
                                          /*share_channel_scans=*/false));
    }
  }
  const PipelineReport& reference = shared_runs.front().merged;
  ASSERT_GT(reference.frames, 0u);
  EXPECT_LT(reference.exec.channel_scans_unique,
            reference.exec.channel_scans_requested);
  for (std::size_t r = 0; r < shared_runs.size(); ++r) {
    // Same toggle: full equality including the unique counters.
    expect_merged_equal(reference, shared_runs[r].merged,
                        /*compare_lambdas=*/true,
                        /*compare_scan_unique=*/true);
    // Across the toggle: everything but the unique counters.
    expect_merged_equal(reference, unshared_runs[r].merged,
                        /*compare_lambdas=*/true,
                        /*compare_scan_unique=*/false);
    EXPECT_EQ(unshared_runs[r].merged.exec.channel_scans_unique,
              unshared_runs[r].merged.exec.channel_scans_requested);
  }
}

// A 1-shard ShardedPipeline is the StreamingPipeline: the merged report
// reproduces a plain pipeline run over the same engine config bitwise.
TEST(ShardedPipelineTest, SingleShardMatchesPlainPipeline) {
  const ShardedReport sharded = run_sharded(1, 2, knowledge_factory());

  ShardedConfig config;
  config.shards = 1;
  config.pipeline.workers = 2;
  config.pipeline.window = 16;
  config.pipeline.joint.gamma = 2.0f;
  const ShardedPipeline owner(config);  // borrow an identical engine
  StreamingPipeline plain(owner.engine(0), config.pipeline);
  FrameStream stream(small_stream());
  const PipelineReport direct = plain.run(stream, [&owner] {
    return std::make_unique<gating::KnowledgeGate>(
        owner.engine(0).default_knowledge_table(),
        owner.engine(0).config_space().size());
  });
  expect_merged_equal(sharded.merged, direct);
  ASSERT_EQ(sharded.shards.size(), 1u);
  EXPECT_EQ(sharded.shards[0].frames, direct.frames);
  ASSERT_EQ(sharded.shards[0].lambda_trace.size(), direct.lambda_trace.size());
  for (std::size_t i = 0; i < direct.lambda_trace.size(); ++i) {
    EXPECT_EQ(sharded.shards[0].lambda_trace[i], direct.lambda_trace[i]);
  }
}

// With per-shard closed loops active, shard-count invariance is out (each
// shard holds its own budget over its own sub-stream — by design), but for
// a FIXED shard count everything, including every shard's λ traces, stays
// bitwise deterministic across worker counts.
TEST(ShardedPipelineTest, ControllersStayDeterministicAcrossWorkerCounts) {
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

  const ShardedReport one = run_sharded(2, 1, oracle_factory(), stream_config,
                                        budget, deadline);
  const ShardedReport four = run_sharded(2, 4, oracle_factory(), stream_config,
                                         budget, deadline);
  expect_merged_equal(one.merged, four.merged);
  ASSERT_EQ(one.shards.size(), four.shards.size());
  for (std::size_t s = 0; s < one.shards.size(); ++s) {
    ASSERT_EQ(one.shards[s].lambda_trace.size(),
              four.shards[s].lambda_trace.size());
    for (std::size_t i = 0; i < one.shards[s].lambda_trace.size(); ++i) {
      EXPECT_EQ(one.shards[s].lambda_trace[i],
                four.shards[s].lambda_trace[i]);
      EXPECT_EQ(one.shards[s].deadline_trace[i],
                four.shards[s].deadline_trace[i]);
    }
    EXPECT_EQ(one.shards[s].final_lambda, four.shards[s].final_lambda);
    EXPECT_EQ(one.shards[s].final_lambda_latency,
              four.shards[s].final_lambda_latency);
  }
}

// TaskGroup barriers are per client: waiting on one group must not stall
// on another group's queued work — the property that lets shards share a
// pool without serialising at each other's window barriers.
TEST(TaskGroupTest, WaitCoversOnlyOwnGroup) {
  ThreadPool pool(2);
  TaskGroup blocked_group;
  TaskGroup quick_group;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> quick_done{0};
  // Occupy one worker with a task that blocks until released.
  pool.submit(blocked_group, [gate](std::size_t) { gate.wait(); });
  for (int i = 0; i < 8; ++i) {
    pool.submit(quick_group, [&quick_done](std::size_t) { ++quick_done; });
  }
  quick_group.wait();  // must return while blocked_group is still running
  EXPECT_EQ(quick_done.load(), 8);
  release.set_value();
  blocked_group.wait();
  pool.wait_idle();
}

}  // namespace
}  // namespace eco::runtime
