// Optimisers for gate-network training. The paper trains stems/branches and
// the gate in PyTorch; our gate nets are small enough that SGD/Adam on CPU
// converges in seconds (see gating/gate_trainer.*).
#pragma once

#include <vector>

#include "tensor/nn.hpp"

namespace eco::tensor {

/// Base optimiser over a fixed set of parameters.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update step from accumulated gradients.
  virtual void step() = 0;

  /// Updates the learning rate (for schedules).
  virtual void set_learning_rate(float lr) = 0;

  /// Clears gradients of all managed parameters.
  void zero_grad();

  /// Clips gradient global L2 norm to `max_norm` (no-op if under).
  void clip_grad_norm(float max_norm);

  [[nodiscard]] const std::vector<Param*>& params() const noexcept {
    return params_;
  }

 protected:
  std::vector<Param*> params_;
};

/// SGD with optional momentum and decoupled weight decay.
class Sgd final : public Optimizer {
 public:
  struct Options {
    float lr = 1e-2f;
    float momentum = 0.0f;
    float weight_decay = 0.0f;
  };

  Sgd(std::vector<Param*> params, Options options);
  void step() override;
  void set_learning_rate(float lr) override { options_.lr = lr; }

 private:
  Options options_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction. Weight decay is L2, coupled
/// into the gradient (g = ∇w + wd·w), not decoupled as in AdamW.
///
/// So a weight whose loss gradient is always zero (one into or out of a
/// dead ReLU unit) still moves: g = wd·w, m̂ ∝ w, and each step removes a
/// fraction of w. It shrinks geometrically and never reaches 0. It stops
/// only when lr·m̂ underflows to 0, which with the gate trainer's lr and wd
/// happens at |w| ≈ 1e-38–1e-37. The products of such weights are
/// subnormal, so train_gate and load_params zero them afterwards
/// (flush_negligible in nn.hpp).
class Adam final : public Optimizer {
 public:
  struct Options {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    float weight_decay = 0.0f;
  };

  Adam(std::vector<Param*> params, Options options);
  void step() override;
  void set_learning_rate(float lr) override { options_.lr = lr; }

 private:
  Options options_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::size_t t_ = 0;
};

}  // namespace eco::tensor
