#include "gating/gate_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/optim.hpp"
#include "util/rng.hpp"

namespace eco::gating {

GateTrainHistory train_gate(LearnedGate& gate,
                            const std::vector<GateExample>& examples,
                            const GateTrainConfig& config) {
  GateTrainHistory history;
  if (examples.empty()) return history;

  tensor::Adam::Options adam_options;
  adam_options.lr = config.learning_rate;
  adam_options.weight_decay = config.weight_decay;
  tensor::Adam optimizer(gate.parameters(), adam_options);

  util::Rng rng(config.shuffle_seed);
  std::vector<std::size_t> order(examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  float best_loss = std::numeric_limits<float>::infinity();
  std::size_t stale_epochs = 0;

  float lr = config.learning_rate;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(lr);
    lr *= config.lr_decay;
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t index : order) {
      const GateExample& example = examples[index];
      optimizer.zero_grad();
      if (config.regret_targets) {
        std::vector<float> regret = example.config_losses;
        float lo = regret.empty() ? 0.0f : regret[0];
        for (float v : regret) lo = std::min(lo, v);
        for (float& v : regret) v -= lo;
        epoch_loss += gate.training_step(example.features, regret);
      } else {
        epoch_loss += gate.training_step(example.features,
                                         example.config_losses);
      }
      optimizer.clip_grad_norm(config.grad_clip);
      optimizer.step();
    }
    const float mean_loss =
        static_cast<float>(epoch_loss / static_cast<double>(order.size()));
    history.epoch_loss.push_back(mean_loss);

    if (config.early_stop_delta > 0.0f) {
      if (mean_loss < best_loss - config.early_stop_delta) {
        best_loss = mean_loss;
        stale_epochs = 0;
      } else if (++stale_epochs >= config.patience) {
        break;
      }
    }
  }
  // Dead units' weights end near 1e-37, not at 0 (Adam in optim.hpp).
  tensor::flush_negligible(gate.parameters());
  return history;
}

float gate_selection_accuracy(LearnedGate& gate,
                              const std::vector<GateExample>& examples) {
  if (examples.empty()) return 0.0f;
  std::size_t correct = 0;
  for (const GateExample& example : examples) {
    GateInput input;
    input.features = &example.features;
    const std::vector<float> predicted = gate.predict_losses(input);
    const auto pred_best = static_cast<std::size_t>(std::distance(
        predicted.begin(), std::min_element(predicted.begin(), predicted.end())));
    const auto true_best = static_cast<std::size_t>(std::distance(
        example.config_losses.begin(),
        std::min_element(example.config_losses.begin(),
                         example.config_losses.end())));
    if (pred_best == true_best) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(examples.size());
}

}  // namespace eco::gating
