// Supervised gate training (§5): "we take the trained stem and branch
// outputs and use them to separately train the gate model to select the
// branches that produce the lowest loss for a given stem output (F)".
//
// Training pairs are (F, L_f(Φ)) — stem features and the measured fusion
// loss of every configuration on that frame. The gate regresses the loss
// vector with smooth-L1 + Adam.
#pragma once

#include <vector>

#include "gating/learned_gate.hpp"
#include "tensor/tensor.hpp"

namespace eco::gating {

/// One training example.
struct GateExample {
  tensor::Tensor features;          // F for the frame
  std::vector<float> config_losses; // ground-truth L_f(φ) per configuration
};

/// Training hyper-parameters.
struct GateTrainConfig {
  std::size_t epochs = 80;
  float learning_rate = 2e-3f;
  /// Per-epoch multiplicative learning-rate decay.
  float lr_decay = 0.97f;
  float weight_decay = 1e-5f;
  float grad_clip = 5.0f;
  std::uint64_t shuffle_seed = 0x7121ull;
  /// Train on per-frame *regret* (loss minus the frame's minimum loss)
  /// instead of absolute loss. Absolute frame difficulty (object count,
  /// weather severity) dominates the raw loss and is irrelevant to
  /// configuration selection; regret isolates the ranking signal. The
  /// joint optimization is invariant to the per-frame shift.
  bool regret_targets = true;
  /// Stop early when epoch loss improves less than this for `patience`
  /// consecutive epochs (0 disables).
  float early_stop_delta = 0.0f;
  std::size_t patience = 5;
};

/// Per-epoch mean training loss.
struct GateTrainHistory {
  std::vector<float> epoch_loss;

  [[nodiscard]] float final_loss() const noexcept {
    return epoch_loss.empty() ? 0.0f : epoch_loss.back();
  }
};

/// Trains the gate in place; returns the loss history. On return no
/// parameter has 0 < |w| < tensor::kNegligibleParam (flush_negligible).
GateTrainHistory train_gate(LearnedGate& gate,
                            const std::vector<GateExample>& examples,
                            const GateTrainConfig& config = {});

/// Fraction of examples where the gate's argmin-loss configuration matches
/// the oracle argmin (top-1 selection accuracy).
[[nodiscard]] float gate_selection_accuracy(
    LearnedGate& gate, const std::vector<GateExample>& examples);

}  // namespace eco::gating
