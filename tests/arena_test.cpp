// TensorArena / FrameArena semantics and the zero-allocation contract:
// pooled tensors are recycled across resets with stable addresses, arena
// reuse is bitwise invisible in results, and a second frame through a
// warmed arena performs zero tensor heap allocations — measured with the
// thread-local tensor_alloc_count the pipeline also samples.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "dataset/generator.hpp"
#include "exec/frame_arena.hpp"
#include "exec/workspace.hpp"
#include "gating/knowledge_gate.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stream.hpp"
#include "tensor/arena.hpp"

namespace eco {
namespace {

const core::EcoFusionEngine& engine() {
  static const core::EcoFusionEngine instance;
  return instance;
}

dataset::Frame test_frame(std::uint64_t id) {
  dataset::DatasetConfig config;
  return dataset::generate_frame(dataset::SceneType::kCity, config, id);
}

TEST(TensorArenaTest, RecyclesSlotsWithStableAddressesAndNoReallocation) {
  tensor::TensorArena arena;
  tensor::Tensor& a = arena.acquire({4, 8, 8});
  tensor::Tensor& b = arena.acquire({16});
  a.fill(1.0f);
  b.fill(2.0f);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_GE(arena.heap_allocs(), 2u);
  EXPECT_EQ(arena.bytes_high_water(), (4 * 8 * 8 + 16) * sizeof(float));

  const std::uint64_t warmed = arena.heap_allocs();
  arena.reset();
  EXPECT_EQ(arena.live(), 0u);
  tensor::Tensor& a2 = arena.acquire({4, 8, 8});
  tensor::Tensor& b2 = arena.acquire({16});
  // Same slots, same storage, no new heap allocations.
  EXPECT_EQ(&a2, &a);
  EXPECT_EQ(&b2, &b);
  EXPECT_EQ(arena.heap_allocs(), warmed);

  // Smaller shapes reuse capacity too.
  arena.reset();
  (void)arena.acquire({2, 3});
  EXPECT_EQ(arena.heap_allocs(), warmed);
}

TEST(TensorArenaTest, AcquireZeroedClearsStaleContents) {
  tensor::TensorArena arena;
  arena.acquire({8}).fill(7.0f);
  arena.reset();
  const tensor::Tensor& t = arena.acquire_zeroed({8});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorAllocCountTest, CountsConstructionsCopiesAndGrowth) {
  const std::uint64_t base = tensor::tensor_alloc_count();
  tensor::Tensor t({4, 4});
  EXPECT_EQ(tensor::tensor_alloc_count(), base + 1);
  tensor::Tensor copy = t;
  EXPECT_EQ(tensor::tensor_alloc_count(), base + 2);
  tensor::Tensor moved = std::move(copy);  // moves are free
  EXPECT_EQ(tensor::tensor_alloc_count(), base + 2);
  moved.resize({2, 2});  // shrink within capacity: free
  EXPECT_EQ(tensor::tensor_alloc_count(), base + 2);
  moved.resize({8, 8});  // growth: counted
  EXPECT_EQ(tensor::tensor_alloc_count(), base + 3);
}

TEST(FrameArenaTest, SecondFrameThroughOneArenaMakesZeroTensorAllocs) {
  const dataset::Frame first = test_frame(1);
  const dataset::Frame second = test_frame(2);
  const std::size_t config_index = engine().baselines().late;

  exec::FrameArena arena;
  core::RunResult warm;
  {
    exec::FrameWorkspace ws(engine(), first, /*share_channel_scans=*/true,
                            &arena);
    warm = engine().run_selected(ws, config_index,
                                 energy::GateComplexity::kNone);
  }
  // The warmed arena absorbs every per-frame tensor: scanning and scoring
  // the second frame touches the heap zero times (tensor buffers).
  const std::uint64_t before = tensor::tensor_alloc_count();
  exec::FrameWorkspace ws(engine(), second, /*share_channel_scans=*/true,
                          &arena);
  const core::RunResult reused =
      engine().run_selected(ws, config_index, energy::GateComplexity::kNone);
  EXPECT_EQ(tensor::tensor_alloc_count(), before);
  EXPECT_GT(reused.detections.size() + warm.detections.size(), 0u);

  // And arena routing is bitwise invisible: a fresh workspace without an
  // external arena produces the identical result.
  exec::FrameWorkspace fresh(engine(), second);
  const core::RunResult baseline =
      engine().run_selected(fresh, config_index, energy::GateComplexity::kNone);
  ASSERT_EQ(reused.detections.size(), baseline.detections.size());
  for (std::size_t i = 0; i < baseline.detections.size(); ++i) {
    EXPECT_EQ(reused.detections[i].box.x1, baseline.detections[i].box.x1);
    EXPECT_EQ(reused.detections[i].score, baseline.detections[i].score);
    EXPECT_EQ(reused.detections[i].cls, baseline.detections[i].cls);
  }
  EXPECT_EQ(reused.loss.total(), baseline.loss.total());
  EXPECT_GT(ws.arena_bytes_high_water(), 0u);
}

TEST(FrameArenaTest, ArenaBackedGateFeaturesAreBitwiseExact) {
  const dataset::Frame frame = test_frame(5);
  const tensor::Tensor expected = engine().stems().gate_features(frame);

  tensor::TensorArena arena;
  const tensor::Tensor& warm = engine().stems().gate_features_into(frame, arena);
  EXPECT_TRUE(warm.equals(expected));

  // A second pass through the warmed arena allocates nothing and still
  // matches bitwise.
  arena.reset();
  const std::uint64_t before = tensor::tensor_alloc_count();
  const tensor::Tensor& reused =
      engine().stems().gate_features_into(frame, arena);
  EXPECT_EQ(tensor::tensor_alloc_count(), before);
  EXPECT_TRUE(reused.equals(expected));
}

// Pipeline-level contract: after the first TWO control windows warm the
// ping-ponged slot sets (the window-pipelined scheduler keeps 2x window
// slots so window W+1's frame tasks can overlap window W's), every
// frame reports tensor_allocs == 0; the counters are worker-count invariant
// and survive finalize_report's re-reduction.
TEST(PipelineArenaTest, SteadyStateFramesReportZeroAllocs) {
  const core::EcoFusionEngine shared_engine;
  const runtime::GateFactory gate_factory = [&shared_engine] {
    return std::make_unique<gating::KnowledgeGate>(
        shared_engine.default_knowledge_table(),
        shared_engine.config_space().size());
  };
  runtime::StreamConfig stream_config;
  stream_config.sequence.length = 6;
  stream_config.sequences_per_scene = 1;
  stream_config.seed = 91;

  auto run = [&](std::size_t workers) {
    runtime::PipelineConfig config;
    config.workers = workers;
    config.window = 16;
    runtime::StreamingPipeline pipeline(shared_engine, config);
    runtime::FrameStream stream(stream_config);
    return pipeline.run(stream, gate_factory);
  };

  const runtime::PipelineReport one = run(1);
  ASSERT_GT(one.frames, 32u);
  std::size_t steady = 0;
  for (const runtime::FrameStats& stats : one.frame_stats) {
    if (stats.stream_index >= 32) {
      EXPECT_EQ(stats.tensor_allocs, 0u) << "frame " << stats.stream_index;
      ++steady;
    }
  }
  EXPECT_EQ(steady, one.frames - 32);
  EXPECT_GE(one.exec.zero_alloc_frames, steady);
  EXPECT_GT(one.exec.tensor_allocs, 0u);  // warm-up is visible
  EXPECT_GT(one.exec.arena_bytes_high_water, 0u);

  // Worker-count invariance of the new counters, per frame and aggregate.
  const runtime::PipelineReport four = run(4);
  ASSERT_EQ(one.frame_stats.size(), four.frame_stats.size());
  for (std::size_t i = 0; i < one.frame_stats.size(); ++i) {
    EXPECT_EQ(one.frame_stats[i].tensor_allocs,
              four.frame_stats[i].tensor_allocs);
    EXPECT_EQ(one.frame_stats[i].arena_bytes_high_water,
              four.frame_stats[i].arena_bytes_high_water);
  }
  EXPECT_EQ(one.exec.tensor_allocs, four.exec.tensor_allocs);
  EXPECT_EQ(one.exec.arena_bytes_high_water,
            four.exec.arena_bytes_high_water);
  EXPECT_EQ(one.exec.zero_alloc_frames, four.exec.zero_alloc_frames);
}

}  // namespace
}  // namespace eco
