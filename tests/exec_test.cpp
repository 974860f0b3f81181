// Tests for the shared-execution layer: FrameWorkspace memoization,
// channel-scan sharing, TemporalStemCache bitwise-exact reuse/delta
// refresh, and the row-restricted conv entry point they build on.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "dataset/sequence.hpp"
#include "exec/stem_cache.hpp"
#include "exec/workspace.hpp"
#include "gating/knowledge_gate.hpp"
#include "gating/loss_gate.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace eco::exec {
namespace {

const core::EcoFusionEngine& engine() {
  static core::EcoFusionEngine instance;
  return instance;
}

dataset::Sequence test_sequence(dataset::SceneType scene, std::size_t length,
                                std::uint64_t id = 1) {
  dataset::SequenceConfig config;
  config.length = length;
  config.seed = 2024;
  return dataset::generate_sequence(scene, config, id);
}

void expect_same_detections(const std::vector<detect::Detection>& a,
                            const std::vector<detect::Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.x1, b[i].box.x1);
    EXPECT_EQ(a[i].box.y1, b[i].box.y1);
    EXPECT_EQ(a[i].box.x2, b[i].box.x2);
    EXPECT_EQ(a[i].box.y2, b[i].box.y2);
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

// The satellite fix pinned: with an oracle gate, run_adaptive used to
// compute config_losses (all 7 branches) and then execute the winning
// configuration's branches a second time. Through the workspace every
// branch runs at most once per frame.
TEST(FrameWorkspaceTest, OracleAdaptivePassRunsEachBranchOnce) {
  const auto seq = test_sequence(dataset::SceneType::kRain, 1);
  gating::LossBasedGate oracle(engine().config_space().size());

  FrameWorkspace ws(engine(), seq.frames[0]);
  const core::AdaptiveResult result = engine().run_adaptive(ws, oracle);
  EXPECT_EQ(ws.branch_executions(), core::kNumBranches);
  EXPECT_FALSE(result.run.detections.empty());

  // A second pass over the same workspace adds no executions at all.
  (void)engine().run_adaptive(ws, oracle);
  EXPECT_EQ(ws.branch_executions(), core::kNumBranches);
}

TEST(FrameWorkspaceTest, KnowledgeGateSkipsStemsAndExtraBranches) {
  const auto seq = test_sequence(dataset::SceneType::kCity, 1);
  gating::KnowledgeGate gate(engine().default_knowledge_table(),
                             engine().config_space().size());

  FrameWorkspace ws(engine(), seq.frames[0]);
  const core::AdaptiveResult result = engine().run_adaptive(ws, gate);
  // The knowledge gate never pulls F, so the stems never ran...
  EXPECT_EQ(ws.stem_source(), StemSource::kSkipped);
  // ...and only the selected configuration's branches executed.
  const auto& selected = engine().config_space()[result.run.config_index];
  EXPECT_EQ(ws.branch_executions(), selected.branches.size());
}

TEST(FrameWorkspaceTest, WorkspacePathMatchesFrameWrappers) {
  const auto seq = test_sequence(dataset::SceneType::kFog, 1);
  const dataset::Frame& frame = seq.frames[0];
  gating::LossBasedGate oracle(engine().config_space().size());

  FrameWorkspace ws(engine(), frame);
  const core::AdaptiveResult shared = engine().run_adaptive(ws, oracle);
  const core::AdaptiveResult fresh = engine().run_adaptive(frame, oracle);
  EXPECT_EQ(shared.run.config_index, fresh.run.config_index);
  EXPECT_EQ(shared.run.loss.total(), fresh.run.loss.total());
  EXPECT_EQ(shared.run.energy_j, fresh.run.energy_j);
  expect_same_detections(shared.run.detections, fresh.run.detections);

  const core::RunResult via_ws = engine().run_static(ws, 3);
  const core::RunResult via_frame = engine().run_static(frame, 3);
  EXPECT_EQ(via_ws.loss.total(), via_frame.loss.total());
  expect_same_detections(via_ws.detections, via_frame.detections);
}

TEST(FrameWorkspaceTest, ConfigLossesMatchEngineWrapper) {
  const auto seq = test_sequence(dataset::SceneType::kNight, 1);
  FrameWorkspace ws(engine(), seq.frames[0]);
  const std::vector<float>& shared = ws.config_losses();
  const std::vector<float> fresh = engine().config_losses(seq.frames[0]);
  ASSERT_EQ(shared.size(), fresh.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i], fresh[i]);  // bitwise
  }
}

// ---- cross-branch channel sharing -----------------------------------

const core::ModelConfig& ensemble_config() {
  for (const core::ModelConfig& c : engine().config_space()) {
    if (c.name == "E(CL+CR+L)+CL+CR+L+R") return c;
  }
  throw std::logic_error("ensemble config missing");
}

// The engine's scan plan proves cross-branch equivalence structurally: the
// paper's ensemble configuration reads 7 input channels of which only 4
// are unique, and every branch set of the substrate collapses to the 4
// sensor scans (same RPN, per-sensor ROI heads/prototypes).
TEST(ChannelScanPlanTest, EnsembleConfigHasSevenChannelsFourUniqueScans) {
  const core::ChannelScanPlan& plan = engine().scan_plan();
  const core::ModelConfig& config = ensemble_config();
  std::size_t channels = 0;
  std::set<std::size_t> unique;
  for (core::BranchId branch : config.branches) {
    const std::size_t inputs =
        engine().branch_detector(branch).config().input_count;
    for (std::size_t c = 0; c < inputs; ++c) {
      ++channels;
      unique.insert(plan.scan_id(branch, c));
    }
  }
  EXPECT_EQ(channels, 7u);
  EXPECT_EQ(unique.size(), 4u);
  // Whole branch set: 11 channels over 7 branches, 4 unique scans, and
  // every shared id pins the same sensor grid.
  EXPECT_EQ(plan.total_channels, 11u);
  EXPECT_EQ(plan.num_scans(), 4u);
  for (std::size_t b = 0; b < core::kNumBranches; ++b) {
    const auto id = static_cast<core::BranchId>(b);
    const auto inputs = core::branch_inputs(id);
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      EXPECT_EQ(plan.scans[plan.scan_id(id, c)].sensor, inputs[c]);
    }
  }
}

// The scan decomposition is exact: per-channel scans merged by the branch
// reproduce detect() bitwise, for single- and multi-channel branches.
TEST(ChannelScanTest, ScanThenMergeMatchesDetect) {
  const auto seq = test_sequence(dataset::SceneType::kFog, 1);
  for (core::BranchId branch : {core::BranchId::kEarlyCamerasLidar,
                                core::BranchId::kLidar}) {
    const auto& detector = engine().branch_detector(branch);
    const std::vector<tensor::Tensor> grids =
        engine().branch_grids(branch, seq.frames[0]);
    std::vector<std::vector<detect::Detection>> scans;
    detect::ScanScratch scratch;
    for (std::size_t c = 0; c < grids.size(); ++c) {
      scans.push_back(detector.scan_channel(c, grids[c], &scratch));
      // Scratch reuse is bitwise invisible.
      expect_same_detections(scans.back(),
                             detector.scan_channel(c, grids[c]));
    }
    expect_same_detections(detector.merge_channel_scans(std::move(scans)),
                           detector.detect(grids));
  }
}

// A workspace materializing the ensemble configuration's branches performs
// exactly 4 scans for the 7 requested channels — and the merged branch
// detections are bitwise identical to unshared and to engine-level runs.
TEST(ChannelScanTest, EnsembleConfigPerformsFourScansForSevenChannels) {
  const auto seq = test_sequence(dataset::SceneType::kSnow, 1);
  const core::ModelConfig& config = ensemble_config();

  FrameWorkspace shared(engine(), seq.frames[0], /*share_channel_scans=*/true);
  FrameWorkspace unshared(engine(), seq.frames[0],
                          /*share_channel_scans=*/false);
  for (core::BranchId branch : config.branches) {
    expect_same_detections(shared.branch_detections(branch),
                           unshared.branch_detections(branch));
    expect_same_detections(shared.branch_detections(branch),
                           engine().run_branch(branch, seq.frames[0]));
  }
  EXPECT_EQ(shared.channel_scans_requested(), 7u);
  EXPECT_EQ(shared.channel_scans_unique(), 4u);
  EXPECT_EQ(unshared.channel_scans_requested(), 7u);
  EXPECT_EQ(unshared.channel_scans_unique(), 7u);
  EXPECT_EQ(shared.branch_executions(), config.branches.size());
  EXPECT_EQ(unshared.branch_executions(), config.branches.size());
}

// An oracle pass (all 7 branches) collapses the branch set's 11 channel
// scans to the 4 sensors.
TEST(ChannelScanTest, OraclePassScansElevenChannelsFourTimes) {
  const auto seq = test_sequence(dataset::SceneType::kRain, 1);
  gating::LossBasedGate oracle(engine().config_space().size());
  FrameWorkspace ws(engine(), seq.frames[0]);
  (void)engine().run_adaptive(ws, oracle);
  EXPECT_EQ(ws.branch_executions(), core::kNumBranches);
  EXPECT_EQ(ws.channel_scans_requested(), 11u);
  EXPECT_EQ(ws.channel_scans_unique(), 4u);
}

// Cache-resolved features must be bitwise equal to a fresh stem pass for
// every frame of a sequence — this is the exactness contract that makes the
// cache legal under the pipeline's determinism guarantee.
TEST(TemporalStemCacheTest, SequenceFeaturesAreBitwiseExact) {
  const auto seq = test_sequence(dataset::SceneType::kMotorway, 6);
  TemporalStemCache cache(engine().stems());
  for (const dataset::Frame& frame : seq.frames) {
    const tensor::Tensor cached = cache.gate_features(42, frame);
    const tensor::Tensor fresh = engine().stems().gate_features(frame);
    ASSERT_EQ(cached.shape(), fresh.shape());
    for (std::size_t i = 0; i < cached.numel(); ++i) {
      ASSERT_EQ(cached[i], fresh[i]) << "feature " << i << " diverged";
    }
  }
  const StemCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, seq.frames.size() - 1);
}

TEST(TemporalStemCacheTest, SparseDeltaRefreshesOnlyTouchedRows) {
  const auto seq = test_sequence(dataset::SceneType::kCity, 1);
  const dataset::Frame& base = seq.frames[0];

  // A localized change: a few cells in two rows of one sensor.
  dataset::Frame moved = base;
  tensor::Tensor& grid =
      moved.sensor_grids[static_cast<std::size_t>(dataset::SensorKind::kLidar)];
  grid.at(0, 10, 7) += 0.25f;
  grid.at(0, 11, 8) += 0.25f;

  TemporalStemCache cache(engine().stems());
  (void)cache.gate_features(7, base);
  bool hit = false;
  const tensor::Tensor delta = cache.gate_features(7, moved, &hit);
  EXPECT_TRUE(hit);

  const tensor::Tensor fresh = engine().stems().gate_features(moved);
  for (std::size_t i = 0; i < delta.numel(); ++i) {
    ASSERT_EQ(delta[i], fresh[i]);
  }
  const StemCacheCounters counters = cache.counters();
  // Three sensors unchanged (maps reused outright); the dirty input rows
  // 10-11 reach pooled rows 4-6 only.
  EXPECT_EQ(counters.reused_sensor_maps, dataset::kNumSensors - 1);
  EXPECT_LE(counters.refreshed_rows, 3u);
  EXPECT_GE(counters.refreshed_rows, 1u);
}

TEST(TemporalStemCacheTest, IdenticalFrameReusesEverySensorMap) {
  const auto seq = test_sequence(dataset::SceneType::kRural, 1);
  TemporalStemCache cache(engine().stems());
  (void)cache.gate_features(9, seq.frames[0]);
  (void)cache.gate_features(9, seq.frames[0]);
  const StemCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.reused_sensor_maps, dataset::kNumSensors);
  EXPECT_EQ(counters.refreshed_rows, 0u);
}

TEST(TemporalStemCacheTest, EvictionFallsBackToExactRecompute) {
  const auto seq = test_sequence(dataset::SceneType::kSnow, 2);
  StemCacheConfig config;
  config.max_sequences = 1;
  TemporalStemCache cache(engine().stems(), config);
  (void)cache.gate_features(1, seq.frames[0]);
  (void)cache.gate_features(2, seq.frames[0]);  // evicts sequence 1
  bool hit = true;
  const tensor::Tensor recomputed = cache.gate_features(1, seq.frames[1], &hit);
  EXPECT_FALSE(hit);
  const tensor::Tensor fresh = engine().stems().gate_features(seq.frames[1]);
  for (std::size_t i = 0; i < recomputed.numel(); ++i) {
    ASSERT_EQ(recomputed[i], fresh[i]);
  }
}

TEST(TensorOpsTest, Conv2dRowsMatchesFullConv) {
  util::Rng rng(123);
  tensor::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  tensor::Tensor input({2, 11, 9});
  tensor::Tensor weight({3, 2, 3, 3});
  tensor::Tensor bias({3});
  for (auto& v : input.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : weight.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : bias.vec()) v = rng.uniform_f(-1.0f, 1.0f);

  const tensor::Tensor full = tensor::conv2d(input, weight, bias, spec);
  tensor::Tensor striped({3, 11, 9});
  // Cover the output with uneven stripes.
  tensor::conv2d_rows(input, weight, bias, spec, 0, 4, striped);
  tensor::conv2d_rows(input, weight, bias, spec, 4, 5, striped);
  tensor::conv2d_rows(input, weight, bias, spec, 5, 11, striped);
  for (std::size_t i = 0; i < full.numel(); ++i) {
    ASSERT_EQ(full[i], striped[i]);
  }
}

}  // namespace
}  // namespace eco::exec
