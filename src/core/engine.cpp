#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dataset/scene.hpp"
#include "exec/workspace.hpp"
#include "obs/trace.hpp"

namespace eco::core {

namespace {

/// Measured in-box amplitude per unit signature for each modality on clear
/// scenes (the "trained" amplitude calibration of the branch classifier).
/// Cameras render solid rectangles (ratio ~1); lidar loses fill to dropout;
/// radar smears energy into blobs whose in-box mean is well below peak.
float sensor_amplitude_calibration(dataset::SensorKind kind) noexcept {
  switch (kind) {
    case dataset::SensorKind::kCameraLeft:
    case dataset::SensorKind::kCameraRight:
      return 0.99f;
    case dataset::SensorKind::kLidar:
      return 0.78f;
    case dataset::SensorKind::kRadar:
      return 0.65f;
  }
  return 0.9f;
}

/// ROI head tuning for one input channel. The paper trains each branch
/// separately, so modality-specific parameters are part of the branch
/// weights. Radar blobs have soft extents: tighter mask, weaker extent
/// term, and a learned box deflation.
detect::RoiHeadConfig channel_roi_config(dataset::SensorKind kind) {
  detect::RoiHeadConfig config;
  if (kind == dataset::SensorKind::kRadar) {
    config.mask_fraction = 0.55f;
    config.signal_peak_fraction = 0.0f;  // radar peaks are clutter spikes
    config.extent_weight = 1.2f;
    config.amplitude_weight = 3.0f;
    config.box_deflate = 0.74f;
  }
  return config;
}

/// Prototypes for one input channel of a branch: amplitude is the class
/// signature in that channel's modality, scaled by the measured calibration.
std::vector<detect::ClassPrototype> channel_prototypes(
    dataset::SensorKind kind, float amplitude_scale) {
  std::vector<detect::ClassPrototype> prototypes;
  prototypes.reserve(detect::kNumObjectClasses);
  for (detect::ObjectClass cls : detect::all_object_classes()) {
    detect::ClassPrototype p;
    p.cls = cls;
    p.amplitude = amplitude_scale * sensor_amplitude_calibration(kind) *
                  dataset::class_signature(kind, cls);
    const dataset::ClassPriors& priors = dataset::class_priors(cls);
    p.width = priors.width;
    p.height = priors.height;
    prototypes.push_back(p);
  }
  return prototypes;
}

detect::BranchConfig make_branch_config(BranchId branch,
                                        tensor::Backend backend) {
  detect::BranchConfig config;
  config.name = branch_name(branch);
  const auto inputs = branch_inputs(branch);
  config.input_count = inputs.size();
  config.rpn.backend = backend;
  config.roi_per_input.clear();
  for (dataset::SensorKind kind : inputs) {
    detect::RoiHeadConfig roi = channel_roi_config(kind);
    roi.backend = backend;
    config.roi_per_input.push_back(roi);
  }
  return config;
}

/// Resolves the engine's backend once and stamps it into every nested
/// kernel config, so the stored EngineConfig records the concrete backend
/// the engine actually runs (and scan_equivalent/plan-cache keys see it).
EngineConfig resolve_engine_config(EngineConfig config) {
  config.backend = tensor::resolve_backend(config.backend);
  config.stem.backend = config.backend;
  return config;
}

}  // namespace

EcoFusionEngine::EcoFusionEngine(EngineConfig config)
    : config_(resolve_engine_config(std::move(config))),
      space_(build_config_space()),
      baselines_(baseline_indices(space_)),
      stems_(config_.stem),
      fusion_block_(config_.fusion) {
  branches_.reserve(kNumBranches);
  for (std::size_t b = 0; b < kNumBranches; ++b) {
    const auto id = static_cast<BranchId>(b);
    std::vector<std::vector<detect::ClassPrototype>> prototypes;
    for (dataset::SensorKind kind : branch_inputs(id)) {
      prototypes.push_back(
          channel_prototypes(kind, config_.prototype_amplitude_scale));
    }
    branches_.push_back(std::make_unique<detect::BranchDetector>(
        make_branch_config(id, config_.backend),
        std::move(prototypes)));
  }

  // Build the channel-scan plan: walk every (branch, channel) in branch
  // order and assign scan ids by exact equivalence against the unique scans
  // found so far. Two channels share an id only when they read the same
  // sensor grid and their detectors' scans are identical (scan_equivalent
  // compares RPN + ROI configs and prototypes field-by-field), so sharing a
  // memoized scan is bitwise invisible by construction.
  for (std::size_t b = 0; b < kNumBranches; ++b) {
    const auto id = static_cast<BranchId>(b);
    const auto inputs = branch_inputs(id);
    scan_plan_.first_flat[b] = scan_plan_.total_channels;
    scan_plan_.ids[b].reserve(inputs.size());
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      std::size_t scan = scan_plan_.scans.size();
      for (std::size_t s = 0; s < scan_plan_.scans.size(); ++s) {
        const ChannelScanPlan::Scan& rep = scan_plan_.scans[s];
        if (rep.sensor == inputs[c] &&
            branches_[b]->scan_equivalent(
                c, *branches_[static_cast<std::size_t>(rep.branch)],
                rep.channel)) {
          scan = s;
          break;
        }
      }
      if (scan == scan_plan_.scans.size()) {
        scan_plan_.scans.push_back({id, c, inputs[c]});
      }
      scan_plan_.ids[b].push_back(scan);
      ++scan_plan_.total_channels;
    }
  }
}

const std::vector<float>& EcoFusionEngine::adaptive_energy_table(
    energy::GateComplexity gate) const {
  const auto slot = static_cast<std::size_t>(gate);
  std::call_once(cost_table_once_[slot], [&] {
    std::vector<float> energies;
    std::vector<float> latencies;
    energies.reserve(space_.size());
    latencies.reserve(space_.size());
    for (const ModelConfig& config : space_) {
      const energy::ProfileCost cost =
          px2_.cost(config.execution_profile(/*adaptive=*/true, gate));
      energies.push_back(static_cast<float>(cost.energy_j));
      latencies.push_back(static_cast<float>(cost.latency_ms));
    }
    energy_tables_[slot] = std::move(energies);
    latency_tables_[slot] = std::move(latencies);
  });
  return energy_tables_[slot];
}

const std::vector<float>& EcoFusionEngine::adaptive_latency_table(
    energy::GateComplexity gate) const {
  (void)adaptive_energy_table(gate);  // builds both tables of the slot
  return latency_tables_[static_cast<std::size_t>(gate)];
}

double EcoFusionEngine::static_latency_ms(std::size_t config_index) const {
  const ModelConfig& config = space_.at(config_index);
  return px2_.latency_ms(config.execution_profile(
      /*adaptive=*/false, energy::GateComplexity::kNone));
}

double EcoFusionEngine::static_energy_j(std::size_t config_index) const {
  const ModelConfig& config = space_.at(config_index);
  return px2_.energy_j(config.execution_profile(
      /*adaptive=*/false, energy::GateComplexity::kNone));
}

std::vector<tensor::Tensor> EcoFusionEngine::branch_grids(
    BranchId branch, const dataset::Frame& frame) const {
  std::vector<tensor::Tensor> grids;
  for (dataset::SensorKind kind : branch_inputs(branch)) {
    grids.push_back(frame.grid(kind));
  }
  return grids;
}

std::vector<detect::Detection> EcoFusionEngine::run_branch(
    BranchId branch, const dataset::Frame& frame) const {
  return branches_[static_cast<std::size_t>(branch)]->detect(
      branch_grids(branch, frame));
}

void EcoFusionEngine::fuse_and_score(exec::FrameWorkspace& ws,
                                     std::size_t config_index,
                                     RunResult& result) const {
  const ModelConfig& config = space_.at(config_index);
  // Covers branch materialization (scan merges), late fusion and NMS, and
  // ground-truth scoring — the per-configuration merge tail.
  obs::Span span(obs::Stage::kNmsMerge);
  span.arg(static_cast<double>(config_index));
  span.arg(static_cast<double>(config.branches.size()));
  // Non-owning views over the workspace's memoized lists — fusing a frame
  // must not copy every branch's detections first.
  std::vector<const fusion::DetectionList*> per_branch;
  per_branch.reserve(config.branches.size());
  for (BranchId branch : config.branches) {
    per_branch.push_back(&ws.branch_detections(branch));
  }
  result.config_index = config_index;
  result.detections = fusion_block_.fuse_views(per_branch);
  result.loss = detect::detection_loss(result.detections, ws.frame().objects,
                                       config_.loss);
}

RunResult EcoFusionEngine::run_static(exec::FrameWorkspace& ws,
                                      std::size_t config_index) const {
  RunResult result;
  fuse_and_score(ws, config_index, result);
  result.latency_ms = static_latency_ms(config_index);
  result.energy_j = static_energy_j(config_index);
  return result;
}

RunResult EcoFusionEngine::run_static(const dataset::Frame& frame,
                                      std::size_t config_index) const {
  exec::FrameWorkspace ws(*this, frame);
  return run_static(ws, config_index);
}

std::vector<float> EcoFusionEngine::config_losses(
    const dataset::Frame& frame) const {
  exec::FrameWorkspace ws(*this, frame);
  return ws.config_losses();
}

SelectionResult EcoFusionEngine::select_adaptive(
    exec::FrameWorkspace& ws, gating::Gate& gate,
    std::optional<JointOptParams> params,
    const std::vector<float>* precomputed_oracle) const {
  const JointOptParams joint = params.value_or(config_.joint);

  // 1-2: stems + gate. F resolves lazily through the workspace, so gates
  // that never consult it (knowledge, oracle) skip the stems entirely.
  gating::GateInput input;
  input.feature_source = &ws;
  input.scene = ws.frame().scene;
  if (precomputed_oracle != nullptr) {
    input.oracle_losses = precomputed_oracle;
  } else if (gate.needs_oracle()) {
    input.oracle_losses = &ws.config_losses();
  }
  std::vector<float> predicted = gate.predict_losses(input);
  if (predicted.size() != space_.size()) {
    throw std::logic_error("run_adaptive: gate arity != |Φ|");
  }

  // 3-4: candidate selection + joint optimization over the offline E(Φ)
  // and (when a deadline loop actuates λ_L) the modeled T(Φ).
  const std::vector<float>& energies = adaptive_energy_table(gate.complexity());
  const std::vector<float>& latencies =
      adaptive_latency_table(gate.complexity());
  SelectionResult result;
  result.config_index =
      select_configuration(predicted, energies, latencies, joint);
  result.predicted_losses = std::move(predicted);
  result.candidates = candidate_set(result.predicted_losses, joint.gamma);
  return result;
}

RunResult EcoFusionEngine::run_selected(
    exec::FrameWorkspace& ws, std::size_t config_index,
    energy::GateComplexity gate_complexity) const {
  RunResult result;
  fuse_and_score(ws, config_index, result);
  result.latency_ms = px2_.latency_ms(space_[config_index].execution_profile(
      /*adaptive=*/true, gate_complexity));
  result.energy_j = adaptive_energy_table(gate_complexity)[config_index];
  return result;
}

AdaptiveResult EcoFusionEngine::run_adaptive(
    exec::FrameWorkspace& ws, gating::Gate& gate,
    std::optional<JointOptParams> params,
    const std::vector<float>* precomputed_oracle) const {
  SelectionResult selection =
      select_adaptive(ws, gate, params, precomputed_oracle);
  AdaptiveResult result;
  result.run = run_selected(ws, selection.config_index, gate.complexity());
  result.predicted_losses = std::move(selection.predicted_losses);
  result.candidates = std::move(selection.candidates);
  return result;
}

AdaptiveResult EcoFusionEngine::run_adaptive(
    const dataset::Frame& frame, gating::Gate& gate,
    std::optional<JointOptParams> params,
    const std::vector<float>* precomputed_oracle) const {
  exec::FrameWorkspace ws(*this, frame);
  return run_adaptive(ws, gate, params, precomputed_oracle);
}

gating::KnowledgeTable EcoFusionEngine::default_knowledge_table() const {
  auto find = [&](const char* name) -> std::size_t {
    for (const ModelConfig& c : space_) {
      if (c.name == name) return c.index;
    }
    throw std::logic_error("default_knowledge_table: missing config");
  };
  gating::KnowledgeTable table{};
  using dataset::SceneType;
  // Encoded domain knowledge (§4.2.1): cameras dominate in clear daylight;
  // add lidar in cluttered city; fall back to the full (or full-ensemble)
  // sensor set in fog/rain/snow; radar helps at night.
  table[static_cast<std::size_t>(SceneType::kCity)] = find("E(CL+CR+L)");
  table[static_cast<std::size_t>(SceneType::kFog)] =
      find("E(CL+CR+L)+CL+CR+L+R");
  table[static_cast<std::size_t>(SceneType::kJunction)] = find("E(CL+CR)");
  table[static_cast<std::size_t>(SceneType::kMotorway)] = find("E(CL+CR)");
  table[static_cast<std::size_t>(SceneType::kNight)] = find("E(CL+CR+L)+R");
  table[static_cast<std::size_t>(SceneType::kRain)] = find("CL+CR+L+R");
  table[static_cast<std::size_t>(SceneType::kRural)] = find("CR+L");
  table[static_cast<std::size_t>(SceneType::kSnow)] =
      find("E(CL+CR+L)+CL+CR+L+R");
  return table;
}

}  // namespace eco::core
