#include "harness.hpp"

#include <cstdio>

#include "eval/metrics.hpp"
#include "exec/workspace.hpp"

namespace eco::bench {

Harness::Harness(HarnessConfig config) : config_(config) {
  dataset::DatasetConfig data_config;
  data_config.frames_per_scene = config_.frames_per_scene;
  data_config.seed = config_.dataset_seed;
  data_ = std::make_unique<dataset::Dataset>(data_config);

  core::EngineConfig engine_config;
  engine_config.joint.gamma = config_.gamma;
  engine_ = std::make_unique<core::EcoFusionEngine>(engine_config);

  oracle_cache_.resize(data_->size());
  feature_cache_.resize(data_->size());
}

const std::vector<float>& Harness::oracle_losses(std::size_t frame_index) {
  auto& entry = oracle_cache_.at(frame_index);
  if (entry.empty()) {
    entry = engine_->config_losses(data_->frame(frame_index));
  }
  return entry;
}

const tensor::Tensor& Harness::features(std::size_t frame_index) {
  auto& entry = feature_cache_.at(frame_index);
  if (entry.empty()) {
    entry = engine_->gate_features(data_->frame(frame_index));
  }
  return entry;
}

std::vector<gating::GateExample> Harness::training_examples() {
  std::vector<gating::GateExample> examples;
  examples.reserve(data_->train_indices().size());
  for (std::size_t index : data_->train_indices()) {
    gating::GateExample example;
    example.features = features(index);
    example.config_losses = oracle_losses(index);
    examples.push_back(std::move(example));
  }
  return examples;
}

void Harness::train(gating::LearnedGate& gate) {
  const auto examples = training_examples();
  const auto history =
      gating::train_gate(gate, examples, config_.gate_training);
  std::fprintf(stderr, "[harness] trained %s gate: %zu epochs, loss %.4f, "
               "selection accuracy %.2f\n",
               gate.name().c_str(), history.epoch_loss.size(),
               history.final_loss(),
               gating::gate_selection_accuracy(gate, examples));
}

gating::LearnedGate& Harness::deep_gate() {
  if (!deep_) {
    gating::LearnedGateConfig config;
    config.in_channels = engine_->stems().gate_channels();
    config.num_configs = engine_->config_space().size();
    config.use_attention = false;
    deep_ = std::make_unique<gating::LearnedGate>(config);
    train(*deep_);
  }
  return *deep_;
}

gating::LearnedGate& Harness::attention_gate() {
  if (!attention_) {
    gating::LearnedGateConfig config;
    config.in_channels = engine_->stems().gate_channels();
    config.num_configs = engine_->config_space().size();
    config.use_attention = true;
    attention_ = std::make_unique<gating::LearnedGate>(config);
    train(*attention_);
  }
  return *attention_;
}

gating::KnowledgeGate& Harness::knowledge_gate() {
  if (!knowledge_) {
    knowledge_ = std::make_unique<gating::KnowledgeGate>(
        engine_->default_knowledge_table(), engine_->config_space().size());
  }
  return *knowledge_;
}

gating::LossBasedGate& Harness::loss_gate() {
  if (!loss_based_) {
    loss_based_ =
        std::make_unique<gating::LossBasedGate>(engine_->config_space().size());
  }
  return *loss_based_;
}

EvalSummary Harness::evaluate_static(std::size_t config_index,
                                     const std::vector<std::size_t>& frames,
                                     std::string label) {
  EvalSummary summary;
  summary.label = std::move(label);
  std::vector<eval::FrameResult> results;
  eval::RunningStats loss, energy, latency;
  for (std::size_t index : frames) {
    const dataset::Frame& frame = data_->frame(index);
    core::RunResult run = engine_->run_static(frame, config_index);
    loss.add(run.loss.total());
    energy.add(run.energy_j);
    latency.add(run.latency_ms);
    results.push_back({std::move(run.detections), frame.objects});
  }
  summary.map = eval::mean_average_precision(results);
  summary.mean_loss = loss.mean();
  summary.mean_energy_j = energy.mean();
  summary.mean_latency_ms = latency.mean();
  return summary;
}

EvalSummary Harness::evaluate_adaptive(gating::Gate& gate, float lambda_energy,
                                       const std::vector<std::size_t>& frames,
                                       std::string label) {
  EvalSummary summary;
  summary.label = std::move(label);
  core::JointOptParams params;
  params.gamma = config_.gamma;
  params.lambda_energy = lambda_energy;
  // Per frame: select φ* (Algorithm 1 steps 1–4), then execute it (step 5)
  // through the same workspace, so the selection's branch work is reused.
  std::vector<eval::FrameResult> results;
  eval::RunningStats loss, energy, latency;
  for (std::size_t index : frames) {
    const dataset::Frame& frame = data_->frame(index);
    exec::FrameWorkspace ws(*engine_, frame);
    const std::vector<float>* oracle =
        gate.needs_oracle() ? &oracle_losses(index) : nullptr;
    const core::SelectionResult selection =
        engine_->select_adaptive(ws, gate, params, oracle);
    core::RunResult run = engine_->run_selected(ws, selection.config_index,
                                                gate.complexity());
    loss.add(run.loss.total());
    energy.add(run.energy_j);
    latency.add(run.latency_ms);
    results.push_back({std::move(run.detections), frame.objects});
  }
  summary.map = eval::mean_average_precision(results);
  summary.mean_loss = loss.mean();
  summary.mean_energy_j = energy.mean();
  summary.mean_latency_ms = latency.mean();
  return summary;
}

}  // namespace eco::bench
