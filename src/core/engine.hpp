// The EcoFusion engine: Algorithm 1 of the paper, end to end.
//
//   1. sensor grids -> modality stems -> features F
//   2. gate(F, Φ) -> predicted fusion losses L_f(Φ)
//   3. ρ(L_f(Φ), γ) -> candidate set Φ*
//   4. argmin_{φ ∈ Φ*} (1-λ_E)·L_f(φ) + λ_E·E(φ) -> φ*
//   5. run the branches of φ*, late-fuse with the fusion block -> Ŷ
//
// The engine also runs any configuration statically (the None/Early/Late
// baselines of Table 1) and computes ground-truth per-configuration losses
// (for the Loss-Based oracle gate and for gate training).
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/config_space.hpp"
#include "core/joint_opt.hpp"
#include "core/stems.hpp"
#include "dataset/generator.hpp"
#include "detect/branch_detector.hpp"
#include "detect/losses.hpp"
#include "energy/px2_model.hpp"
#include "fusion/fusion_block.hpp"
#include "gating/gate.hpp"
#include "gating/knowledge_gate.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor.hpp"

namespace eco::exec {
class FrameWorkspace;
}

namespace eco::core {

/// Engine-wide configuration.
struct EngineConfig {
  JointOptParams joint;                 // γ and default λ_E
  fusion::FusionBlockConfig fusion;     // late-fusion block
  StemConfig stem;                      // gate feature stems
  detect::LossConfig loss;              // detection-loss weighting
  /// Calibration factor mapping class signatures to expected in-box
  /// amplitude for the ROI prototypes (accounts for average context
  /// attenuation and edge dilution).
  float prototype_amplitude_scale = 1.0f;
  /// Kernel backend for every stem/RPN/ROI kernel the engine constructs.
  /// kAuto resolves from ECO_BACKEND exactly once at engine construction,
  /// so one engine never mixes backends mid-run. Both backends are bitwise
  /// equal (see tensor/backend.hpp).
  tensor::Backend backend = tensor::Backend::kAuto;
};

/// Result of executing one configuration on one frame.
struct RunResult {
  std::size_t config_index = 0;
  std::vector<detect::Detection> detections;
  detect::DetectionLoss loss;   // measured against ground truth
  double latency_ms = 0.0;      // PX2 model
  double energy_j = 0.0;        // PX2 model (Eq. 6)
};

/// Result of a full adaptive (Algorithm 1) pass.
struct AdaptiveResult {
  RunResult run;
  std::vector<float> predicted_losses;   // gate output, size |Φ|
  std::vector<std::size_t> candidates;   // Φ* indices
};

/// Result of the selection phase of Algorithm 1 (steps 1–4): which φ* to
/// run, plus the gate outputs. The split lets the streaming pipeline select
/// for a whole control window first and then execute each frame's φ*.
struct SelectionResult {
  std::size_t config_index = 0;
  std::vector<float> predicted_losses;   // gate output, size |Φ|
  std::vector<std::size_t> candidates;   // Φ* indices
};

/// Cross-branch channel-scan plan, built once at engine construction.
///
/// Every (branch, input-channel) pair maps to a *scan id* such that two
/// pairs share an id iff their per-channel scans are interchangeable: they
/// read the same sensor grid AND run an identical RPN + ROI head (configs
/// and prototypes compared exactly via BranchDetector::scan_equivalent, not
/// assumed from construction). The exec layer's per-frame scan cache keys on
/// these ids, so a channel shared by several branches in one frame — an
/// ensemble configuration re-reads up to 7 channels of which only 4 are
/// unique — is scanned exactly once.
struct ChannelScanPlan {
  /// Representative (branch, channel) defining one unique scan.
  struct Scan {
    BranchId branch = BranchId::kCameraLeft;
    std::size_t channel = 0;
    dataset::SensorKind sensor = dataset::SensorKind::kCameraLeft;
  };

  /// scan id per branch input channel: ids[branch][channel].
  std::array<std::vector<std::size_t>, kNumBranches> ids;
  /// Flat offset of each branch's first channel (for per-channel slots in
  /// unshared mode); flat index = first_flat[branch] + channel.
  std::array<std::size_t, kNumBranches> first_flat{};
  /// Unique scans, indexed by scan id.
  std::vector<Scan> scans;
  /// Sum of input counts over all branches (the flat slot count).
  std::size_t total_channels = 0;

  [[nodiscard]] std::size_t scan_id(BranchId branch,
                                    std::size_t channel) const {
    return ids[static_cast<std::size_t>(branch)][channel];
  }
  [[nodiscard]] std::size_t flat_index(BranchId branch,
                                       std::size_t channel) const noexcept {
    return first_flat[static_cast<std::size_t>(branch)] + channel;
  }
  [[nodiscard]] std::size_t num_scans() const noexcept {
    return scans.size();
  }
};

/// The engine. Construction builds all seven branch detectors, the stem
/// bank, the fusion block and the PX2 model; it is immutable afterwards and
/// safe to share across read-only callers.
class EcoFusionEngine {
 public:
  explicit EcoFusionEngine(EngineConfig config = {});

  [[nodiscard]] const std::vector<ModelConfig>& config_space() const noexcept {
    return space_;
  }
  [[nodiscard]] const BaselineIndices& baselines() const noexcept {
    return baselines_;
  }
  [[nodiscard]] const energy::Px2Model& hardware() const noexcept {
    return px2_;
  }
  [[nodiscard]] const StemBank& stems() const noexcept { return stems_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const fusion::FusionBlock& fusion() const noexcept {
    return fusion_block_;
  }
  [[nodiscard]] const detect::BranchDetector& branch_detector(
      BranchId branch) const {
    return *branches_[static_cast<std::size_t>(branch)];
  }

  /// The cross-branch channel-scan plan (see ChannelScanPlan).
  [[nodiscard]] const ChannelScanPlan& scan_plan() const noexcept {
    return scan_plan_;
  }

  /// Offline per-configuration energy table E(Φ) with EcoFusion (adaptive)
  /// accounting: all stems + gate always run (§3.2: computed offline).
  [[nodiscard]] const std::vector<float>& adaptive_energy_table(
      energy::GateComplexity gate) const;

  /// Offline per-configuration modeled latency table T(Φ) (ms) under the
  /// same adaptive accounting as E(Φ). This is the plant model behind the
  /// deadline controller: λ_L scores configurations against these values,
  /// and the controller observes their per-frame means — so closed-loop
  /// latency control is as deterministic as the energy loop.
  [[nodiscard]] const std::vector<float>& adaptive_latency_table(
      energy::GateComplexity gate) const;

  /// Energy/latency of a configuration under static (baseline) accounting.
  [[nodiscard]] double static_latency_ms(std::size_t config_index) const;
  [[nodiscard]] double static_energy_j(std::size_t config_index) const;

  /// Runs one branch on the frame's grids.
  [[nodiscard]] std::vector<detect::Detection> run_branch(
      BranchId branch, const dataset::Frame& frame) const;

  /// The input grids branch `branch` consumes from `frame` (copies, in
  /// the branch's input-channel order; run_branch feeds them to detect()).
  [[nodiscard]] std::vector<tensor::Tensor> branch_grids(
      BranchId branch, const dataset::Frame& frame) const;

  // ---- workspace-routed execution (src/exec) --------------------------
  // The engine's run paths share per-frame intermediates through a
  // FrameWorkspace: every branch executes at most once per workspace and
  // stems run only when a gate pulls F. The frame-taking overloads below
  // are thin wrappers creating a transient workspace.

  /// Runs configuration `config_index` statically (baseline accounting),
  /// reusing any branch detections already in `ws`.
  [[nodiscard]] RunResult run_static(exec::FrameWorkspace& ws,
                                     std::size_t config_index) const;

  /// Steps 1–4 of Algorithm 1: stems (lazy) + gate + candidate selection +
  /// joint optimization. Does not execute φ*'s branches.
  [[nodiscard]] SelectionResult select_adaptive(
      exec::FrameWorkspace& ws, gating::Gate& gate,
      std::optional<JointOptParams> params = std::nullopt,
      const std::vector<float>* precomputed_oracle = nullptr) const;

  /// Step 5 of Algorithm 1: executes configuration `config_index` with
  /// adaptive (EcoFusion) accounting, reusing `ws` branch detections.
  /// `gate_complexity` selects the energy/latency table.
  [[nodiscard]] RunResult run_selected(
      exec::FrameWorkspace& ws, std::size_t config_index,
      energy::GateComplexity gate_complexity) const;

  /// Full adaptive pass (Algorithm 1) over `ws`.
  [[nodiscard]] AdaptiveResult run_adaptive(
      exec::FrameWorkspace& ws, gating::Gate& gate,
      std::optional<JointOptParams> params = std::nullopt,
      const std::vector<float>* precomputed_oracle = nullptr) const;

  /// Runs configuration `config_index` statically (baseline accounting).
  [[nodiscard]] RunResult run_static(const dataset::Frame& frame,
                                     std::size_t config_index) const;

  /// Ground-truth fusion loss of every configuration on this frame.
  /// Each branch executes once; fusion + loss evaluated per configuration.
  [[nodiscard]] std::vector<float> config_losses(
      const dataset::Frame& frame) const;

  /// Stem features F for the gate.
  [[nodiscard]] tensor::Tensor gate_features(
      const dataset::Frame& frame) const {
    return stems_.gate_features(frame);
  }

  /// Full adaptive pass (Algorithm 1). `params` overrides the engine's
  /// default γ/λ_E when provided. If the gate needs oracle losses
  /// (Loss-Based), they are computed on the fly unless supplied — through
  /// the transient workspace, so the winning configuration's branches are
  /// not executed a second time.
  [[nodiscard]] AdaptiveResult run_adaptive(
      const dataset::Frame& frame, gating::Gate& gate,
      std::optional<JointOptParams> params = std::nullopt,
      const std::vector<float>* precomputed_oracle = nullptr) const;

  /// Domain-knowledge table for the Knowledge gate (§4.2.1): the best
  /// sensor combination per context, encoded from the modality analysis.
  [[nodiscard]] gating::KnowledgeTable default_knowledge_table() const;

 private:
  /// Shared tail of the static/adaptive run paths: gathers the
  /// configuration's branch detections from `ws`, late-fuses, and scores
  /// against ground truth. Callers add their own energy/latency accounting.
  void fuse_and_score(exec::FrameWorkspace& ws, std::size_t config_index,
                      RunResult& result) const;

  EngineConfig config_;
  std::vector<ModelConfig> space_;
  BaselineIndices baselines_;
  StemBank stems_;
  energy::Px2Model px2_;
  fusion::FusionBlock fusion_block_;
  std::vector<std::unique_ptr<detect::BranchDetector>> branches_;
  ChannelScanPlan scan_plan_;
  // E(Φ) and T(Φ) tables per gate complexity (lazily built, cached). Both
  // tables of a complexity are built together exactly once under its flag
  // so concurrent read-only callers (the runtime worker pool) never observe
  // a partially filled table.
  mutable std::array<std::once_flag, 4> cost_table_once_;
  mutable std::array<std::vector<float>, 4> energy_tables_;
  mutable std::array<std::vector<float>, 4> latency_tables_;
};

}  // namespace eco::core
