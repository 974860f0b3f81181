// Microbenchmarks of the hot paths: tensor primitives (simd vs reference
// gate convs and stem block, blur, integral image, arena acquisition), RPN
// proposal generation, the ROI head and its region extraction, weighted box
// fusion, the full branch detector, gate inference, the polar noise fill,
// frame synthesis and a complete adaptive pass. These quantify the
// simulator's own CPU cost (not the modelled PX2 cost).
//
// Builds against Google Benchmark when available; otherwise CMake selects
// the header-only shim (bench/bench_shim.hpp) with the same macros.
#ifdef ECO_BENCH_SHIM
#include "bench_shim.hpp"
#else
#include <benchmark/benchmark.h>
#endif

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/engine.hpp"
#include "dataset/generator.hpp"
#include "dataset/sensor_model.hpp"
#include "dataset/sequence.hpp"
#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "fusion/wbf.hpp"
#include "gating/learned_gate.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace eco;

dataset::Frame test_frame() {
  dataset::DatasetConfig config;
  return dataset::generate_frame(dataset::SceneType::kCity, config, 7);
}

gating::LearnedGateConfig gate_config(const core::EcoFusionEngine& engine,
                                      bool attention) {
  gating::LearnedGateConfig config;
  config.in_channels = engine.stems().gate_channels();
  config.num_configs = engine.config_space().size();
  config.use_attention = attention;
  return config;
}

// The committed Attention gate (perfbench/data/attention_gate.bin): the
// trained weights the paper's path runs. A random init times none of what
// trained weights cost, so a file that does not load aborts the run.
gating::LearnedGate committed_attention_gate(
    const core::EcoFusionEngine& engine) {
  gating::LearnedGate gate(gate_config(engine, true));
  if (!tensor::load_params(gate.parameters(), ECO_ATTENTION_GATE_BIN)) {
    std::fprintf(stderr, "micro_benchmarks: cannot load %s\n",
                 ECO_ATTENTION_GATE_BIN);
    std::abort();
  }
  return gate;
}

// The committed gate's three stride-2 convs per backend (Arg 0-2 = 32->24
// on 24x24, 24->24 on 12x12, 24->24 on 6x6, all k3/s2/p1), on trained
// weights and real activations: a frame's gate features through the
// preceding trained convs and ReLUs (conv 2 reads them without the attention
// block the gate runs before it). The backends are pinned bitwise identical
// in tests; the ratio is the payoff of the simd backend's output-channel
// lanes.
void gate_conv_bench(benchmark::State& state, tensor::Backend backend) {
  const auto layer = static_cast<std::size_t>(state.range(0));
  const core::EcoFusionEngine engine;
  gating::LearnedGate gate = committed_attention_gate(engine);
  std::vector<const tensor::Tensor*> conv_params;  // weight, bias per conv
  for (const tensor::Param* p : gate.parameters()) {
    if (p->name.starts_with("conv.")) conv_params.push_back(&p->value);
  }
  const auto conv_spec = [&](std::size_t i) {
    tensor::Conv2dSpec spec;
    spec.in_channels = conv_params.at(2 * i)->size(1);
    spec.out_channels = conv_params.at(2 * i)->size(0);
    spec.stride = 2;
    spec.backend = backend;
    return spec;
  };
  tensor::Tensor input = engine.gate_features(test_frame());
  for (std::size_t i = 0; i < layer; ++i) {
    input = tensor::relu(tensor::conv2d(input, *conv_params[2 * i],
                                        *conv_params[2 * i + 1], conv_spec(i)));
  }
  const tensor::Conv2dSpec spec = conv_spec(layer);
  const tensor::Tensor& weight = *conv_params[2 * layer];
  const tensor::Tensor& bias = *conv_params[2 * layer + 1];
  const std::size_t oh = spec.out_extent(input.size(1));
  tensor::Tensor out({spec.out_channels, oh, oh});
  for (auto _ : state) {
    tensor::conv2d_rows(input, weight, bias, spec, 0, oh, out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_Conv2dGateReference(benchmark::State& state) {
  gate_conv_bench(state, tensor::Backend::kReference);
}
BENCHMARK(BM_Conv2dGateReference)->Arg(0)->Arg(1)->Arg(2);

void BM_Conv2dGateSimd(benchmark::State& state) {
  gate_conv_bench(state, tensor::Backend::kSimd);
}
BENCHMARK(BM_Conv2dGateSimd)->Arg(0)->Arg(1)->Arg(2);

// The stem block per backend: gate_features_into on a real frame through a
// warmed arena — four sensors, each a 3x3 conv into 8 channels, ReLU and
// 2x2 max-pool into F. Simd runs the fused kernel, reference the
// conv2d_rows_reference → ReLU → maxpool2x2_rows composition; tests pin the
// two bitwise identical.
void stem_features_bench(benchmark::State& state, tensor::Backend backend) {
  core::StemConfig config;
  config.backend = backend;
  const core::StemBank stems(config);
  const dataset::Frame frame = test_frame();
  tensor::TensorArena arena;
  (void)stems.gate_features_into(frame, arena);
  for (auto _ : state) {
    arena.reset();
    const tensor::Tensor& features = stems.gate_features_into(frame, arena);
    benchmark::DoNotOptimize(features.data());
  }
}

void BM_StemFeaturesReference(benchmark::State& state) {
  stem_features_bench(state, tensor::Backend::kReference);
}
BENCHMARK(BM_StemFeaturesReference);

void BM_StemFeaturesSimd(benchmark::State& state) {
  stem_features_bench(state, tensor::Backend::kSimd);
}
BENCHMARK(BM_StemFeaturesSimd);

void BM_BoxBlur3Reference(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  tensor::Tensor out;
  for (auto _ : state) {
    detect::box_blur3_into_reference(grid, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BoxBlur3Reference);

void BM_BoxBlur3Simd(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  tensor::Tensor out;
  for (auto _ : state) {
    detect::box_blur3_into_simd(grid, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BoxBlur3Simd);

void BM_IntegralImageResetReference(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kLidar);
  detect::IntegralImage integral;
  for (auto _ : state) {
    integral.reset(grid, tensor::Backend::kReference);
    benchmark::DoNotOptimize(integral.height());
  }
}
BENCHMARK(BM_IntegralImageResetReference);

void BM_IntegralImageResetSimd(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kLidar);
  detect::IntegralImage integral;
  for (auto _ : state) {
    integral.reset(grid, tensor::Backend::kSimd);
    benchmark::DoNotOptimize(integral.height());
  }
}
BENCHMARK(BM_IntegralImageResetSimd);

// The vectorized anchor-contrast sweep vs its scalar equivalent inside a
// full proposal pass: one Rpn per backend over the same plan/scratch.
// Arg: 0 = reference, 1 = simd.
void BM_RpnProposeBackend(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  detect::RpnConfig config;
  config.backend = state.range(0) == 1 ? tensor::Backend::kSimd
                                       : tensor::Backend::kReference;
  const detect::Rpn rpn(config);
  detect::ScanScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpn.propose(grid, &scratch));
  }
}
BENCHMARK(BM_RpnProposeBackend)->Arg(0)->Arg(1);

// Warmed-arena acquisition vs fresh tensor construction — the allocation
// cost the per-slot FrameArena removes from every steady-state frame.
void BM_ArenaAcquire(benchmark::State& state) {
  tensor::TensorArena arena;
  const tensor::Shape shape{8, 48, 48};
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(arena.acquire(shape).data());
  }
}
BENCHMARK(BM_ArenaAcquire);

void BM_FreshTensorAlloc(benchmark::State& state) {
  const tensor::Shape shape{8, 48, 48};
  for (auto _ : state) {
    tensor::Tensor t(shape);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_FreshTensorAlloc);

// One full channel scan through a warmed scratch — the per-frame unit of
// detector work after the kernel/arena overhaul.
void BM_ScanChannelScratch(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const core::EcoFusionEngine engine;
  const auto& detector =
      engine.branch_detector(core::BranchId::kCameraRight);
  detect::ScanScratch scratch;
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.scan_channel(0, grid, &scratch));
  }
}
BENCHMARK(BM_ScanChannelScratch);

// The ROI head alone on the scan's grid and its proposals, per backend
// (Arg 0 = reference, 1 = simd; the backend picks the amplitude integral
// image's kernel): the p95 radix select, component walk and classifier.
void BM_RoiHeadRun(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  core::EngineConfig config;
  config.backend = state.range(0) == 1 ? tensor::Backend::kSimd
                                       : tensor::Backend::kReference;
  const core::EcoFusionEngine engine(config);
  const auto& detector =
      engine.branch_detector(core::BranchId::kCameraRight);
  detect::ScanScratch scratch;
  const auto proposals =
      detect::Rpn(detector.config().rpn).propose(grid, &scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.roi_head(0).run(grid, proposals, &scratch));
  }
}
BENCHMARK(BM_RoiHeadRun)->Arg(0)->Arg(1);

void BM_Matmul64(benchmark::State& state) {
  util::Rng rng(2);
  tensor::Tensor a({64, 64}), b({64, 64});
  for (auto& v : a.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : b.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
}
BENCHMARK(BM_Matmul64);

void BM_RpnPropose(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const detect::Rpn rpn;
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpn.propose(grid));
  }
}
BENCHMARK(BM_RpnPropose);

void BM_RegionExtraction(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const auto& grid = frame.grid(dataset::SensorKind::kCameraRight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::extract_regions(grid, 0.25f, 3));
  }
}
BENCHMARK(BM_RegionExtraction);

// Full sequence synthesis (plan + render of every frame) — the ingest unit
// of work a FrameStream generation task performs. Reported per-iteration;
// divide by the length for µs/frame.
void BM_GenerateSequence(benchmark::State& state) {
  dataset::SequenceConfig config;
  config.length = 16;
  config.seed = 31;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset::generate_sequence(dataset::SceneType::kRain, config, 3));
  }
}
BENCHMARK(BM_GenerateSequence);

// One sensor render, fast vs reference backend, per sensor kind
// (Arg 0-3 = camera_left, camera_right, lidar, radar). The two are pinned
// bitwise identical in tests; the ratio here is the row-pointer walk +
// hoisted blob tables + batched noise fill payoff.
void render_bench_inputs(dataset::SceneEnvironment& env,
                         std::vector<detect::GroundTruth>& objects,
                         std::vector<dataset::Phantom>& phantoms,
                         dataset::SensorGridSpec& spec) {
  env = dataset::scene_environment(dataset::SceneType::kRain);
  util::Rng obj_rng(13);
  objects = dataset::generate_objects(env, spec, obj_rng);
  util::Rng phantom_rng(14);
  phantoms = dataset::generate_phantoms(env, spec, phantom_rng);
}

void BM_RenderSensorFast(benchmark::State& state) {
  dataset::SceneEnvironment env;
  std::vector<detect::GroundTruth> objects;
  std::vector<dataset::Phantom> phantoms;
  dataset::SensorGridSpec spec;
  render_bench_inputs(env, objects, phantoms, spec);
  const auto kind = static_cast<dataset::SensorKind>(state.range(0));
  dataset::RenderScratch scratch;
  util::Rng rng(404);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset::render_sensor_fast(
        kind, env, objects, phantoms, spec, rng, scratch));
  }
}
BENCHMARK(BM_RenderSensorFast)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_RenderSensorReference(benchmark::State& state) {
  dataset::SceneEnvironment env;
  std::vector<detect::GroundTruth> objects;
  std::vector<dataset::Phantom> phantoms;
  dataset::SensorGridSpec spec;
  render_bench_inputs(env, objects, phantoms, spec);
  const auto kind = static_cast<dataset::SensorKind>(state.range(0));
  util::Rng rng(404);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset::render_sensor_reference(
        kind, env, objects, phantoms, spec, rng));
  }
}
BENCHMARK(BM_RenderSensorReference)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_BranchDetect(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const core::EcoFusionEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_branch(core::BranchId::kCameraRight, frame));
  }
}
BENCHMARK(BM_BranchDetect);

void BM_WeightedBoxFusion(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const core::EcoFusionEngine engine;
  std::vector<fusion::DetectionList> lists;
  for (core::BranchId b : {core::BranchId::kCameraLeft,
                           core::BranchId::kCameraRight,
                           core::BranchId::kLidar, core::BranchId::kRadar}) {
    lists.push_back(engine.run_branch(b, frame));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::weighted_boxes_fusion(lists));
  }
}
BENCHMARK(BM_WeightedBoxFusion);

// Arg 0 = Deep gate (random init: no Deep gate is committed), 1 = the
// committed Attention gate.
void BM_GateInference(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const core::EcoFusionEngine engine;
  gating::LearnedGate gate =
      state.range(0) == 0 ? gating::LearnedGate(gate_config(engine, false))
                          : committed_attention_gate(engine);
  const tensor::Tensor features = engine.gate_features(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate.forward(features));
  }
}
BENCHMARK(BM_GateInference)->Arg(0)->Arg(1);

void BM_ConfigLossesAllBranches(benchmark::State& state) {
  const dataset::Frame frame = test_frame();
  const core::EcoFusionEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.config_losses(frame));
  }
}
BENCHMARK(BM_ConfigLossesAllBranches);

// One 48x48 grid's dense noise field: 2304 polar deviates per call.
void BM_FillNormalPolar(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> out(2304);
  for (auto _ : state) {
    rng.fill_normal_polar(0.0, 0.05, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FillNormalPolar);

void BM_FrameGeneration(benchmark::State& state) {
  dataset::DatasetConfig config;
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset::generate_frame(dataset::SceneType::kRain, config, id++));
  }
}
BENCHMARK(BM_FrameGeneration);

}  // namespace

BENCHMARK_MAIN();
