// Layer abstractions built on the primitive ops: the stem CNNs, branch
// feature extractors, and gate networks (Deep / Attention gating, §4.2 of the
// paper) are assembled from these modules.
//
// Execution model: modules process one sample at a time (CHW or flat
// tensors). forward() caches whatever backward() needs; backward() consumes
// the gradient w.r.t. the module output and returns the gradient w.r.t. the
// module input while accumulating parameter gradients.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace eco::tensor {

/// A trainable parameter: value + accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  void zero_grad() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    grad.zero();
  }
};

/// Magnitude below which a trained or loaded parameter value is zeroed.
/// L2-coupled Adam leaves the weights of dead ReLU units near 1e-37 (see
/// Adam in optim.hpp). Their products with features are subnormal, and an
/// x86 core takes a microcode assist for each one: on a Xeon they were over
/// 80% of the trained Attention gate's forward. A product below
/// 1e-30 · |x| is far under half an ulp of an accumulator holding a
/// normal-sized bias or feature sum, so zeroing them changes no output bit
/// of the committed gate (gate_flush_test).
inline constexpr float kNegligibleParam = 1e-30f;

/// Sets every parameter value with |w| < kNegligibleParam to +0. NaN, ±Inf
/// and every |w| >= kNegligibleParam stay bit for bit. Called at the end of
/// load_params and of gating::train_gate; it touches no FP control state.
void flush_negligible(const std::vector<Param*>& params);

/// Base class for all neural-network modules.
class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output for `input`, caching state for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backpropagates `grad_output`; returns gradient w.r.t. the input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends pointers to this module's parameters (default: none).
  virtual void collect_params(std::vector<Param*>& out);

  [[nodiscard]] virtual std::string name() const = 0;

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t param_count();

  /// Zeroes all parameter gradients.
  void zero_grad();
};

/// 2-D convolution (square kernel) with bias.
class Conv2d final : public Module {
 public:
  Conv2d(Conv2dSpec spec, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  [[nodiscard]] const Conv2dSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] Param& weight() noexcept { return weight_; }
  [[nodiscard]] Param& bias() noexcept { return bias_; }

 private:
  Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

/// Elementwise ReLU.
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// 2x2 max pooling, stride 2.
class MaxPool2d final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  Tensor cached_input_;
};

/// (C,H,W) -> (C) global average pool.
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_shape_;
};

/// Any-shape -> 1-D flatten.
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  Shape cached_shape_;
};

/// Fully connected layer with bias.
class Linear final : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] Param& weight() noexcept { return weight_; }
  [[nodiscard]] Param& bias() noexcept { return bias_; }

 private:
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

/// Single-head spatial self-attention over a CHW feature map with a residual
/// connection: tokens are the H*W spatial positions, embeddings are the C
/// channels. This is the layer that differentiates Attention Gating from
/// Deep Gating (§4.2.3).
class SelfAttention2d final : public Module {
 public:
  /// `channels` is the token embedding width; `attn_dim` the Q/K/V width.
  SelfAttention2d(std::size_t channels, std::size_t attn_dim, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] std::string name() const override { return "SelfAttention2d"; }

 private:
  std::size_t channels_;
  std::size_t attn_dim_;
  Param wq_, wk_, wv_, wo_;  // each (attn_dim, C) except wo_ (C, attn_dim)
  // Cached forward state (token-major matrices).
  Tensor x_tokens_, q_, k_, v_, attn_, y_;
  Shape cached_shape_;
};

/// Sequential container; owns its children.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> module);

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const noexcept { return modules_.size(); }
  [[nodiscard]] Module& at(std::size_t i) { return *modules_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

/// Kaiming-uniform initialisation used by Conv2d / Linear.
void kaiming_uniform(Tensor& weight, std::size_t fan_in, util::Rng& rng);

/// 2-D transpose helper (m×n -> n×m).
[[nodiscard]] Tensor transpose2d(const Tensor& matrix);

}  // namespace eco::tensor
