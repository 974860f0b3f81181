#include "tensor/nn.hpp"

#include <cmath>
#include <stdexcept>

namespace eco::tensor {

void Module::collect_params(std::vector<Param*>&) {}

std::size_t Module::param_count() {
  std::vector<Param*> params;
  collect_params(params);
  std::size_t n = 0;
  for (const Param* p : params) n += p->value.numel();
  return n;
}

void Module::zero_grad() {
  std::vector<Param*> params;
  collect_params(params);
  for (Param* p : params) p->zero_grad();
}

void flush_negligible(const std::vector<Param*>& params) {
  for (Param* p : params) {
    float* w = p->value.data();
    const std::size_t n = p->value.numel();
    // A select, not a branch, so the loop vectorizes. fabs(NaN) < k is
    // false, so NaN stays as it is.
    for (std::size_t j = 0; j < n; ++j) {
      w[j] = std::fabs(w[j]) < kNegligibleParam ? 0.0f : w[j];
    }
  }
}

void kaiming_uniform(Tensor& weight, std::size_t fan_in, util::Rng& rng) {
  const float bound =
      fan_in > 0 ? std::sqrt(6.0f / static_cast<float>(fan_in)) : 0.1f;
  for (float& v : weight.vec()) v = rng.uniform_f(-bound, bound);
}

Tensor transpose2d(const Tensor& matrix) {
  if (matrix.dim() != 2) throw std::invalid_argument("transpose2d: 2-D only");
  const std::size_t m = matrix.size(0), n = matrix.size(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) out.at(j, i) = matrix.at(i, j);
  }
  return out;
}

// ----- Conv2d -----

Conv2d::Conv2d(Conv2dSpec spec, util::Rng& rng) : spec_(spec) {
  weight_.name = "conv.weight";
  weight_.value = Tensor(
      {spec.out_channels, spec.in_channels, spec.kernel, spec.kernel});
  const std::size_t fan_in = spec.in_channels * spec.kernel * spec.kernel;
  kaiming_uniform(weight_.value, fan_in, rng);
  bias_.name = "conv.bias";
  bias_.value = Tensor({spec.out_channels});
  weight_.zero_grad();
  bias_.zero_grad();
}

Tensor Conv2d::forward(const Tensor& input) {
  cached_input_ = input;
  return conv2d(input, weight_.value, bias_.value, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  return conv2d_backward(cached_input_, weight_.value, grad_output, spec_,
                         weight_.grad, bias_.grad);
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ----- ReLU -----

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  return relu(input);
}

Tensor ReLU::backward(const Tensor& grad_output) {
  return relu_backward(cached_input_, grad_output);
}

// ----- MaxPool2d -----

Tensor MaxPool2d::forward(const Tensor& input) {
  cached_input_ = input;
  return maxpool2x2(input);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  return maxpool2x2_backward(cached_input_, grad_output);
}

// ----- GlobalAvgPool -----

Tensor GlobalAvgPool::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return global_avg_pool(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  return global_avg_pool_backward(cached_shape_, grad_output);
}

// ----- Flatten -----

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return input.reshaped({input.numel()});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

// ----- Linear -----

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng) {
  weight_.name = "linear.weight";
  weight_.value = Tensor({out_features, in_features});
  kaiming_uniform(weight_.value, in_features, rng);
  bias_.name = "linear.bias";
  bias_.value = Tensor({out_features});
  weight_.zero_grad();
  bias_.zero_grad();
}

Tensor Linear::forward(const Tensor& input) {
  // One copy for the backward cache; flattening is a metadata-only reshape
  // of that copy (the old reshaped() path copied the buffer twice).
  cached_input_ = input;
  if (cached_input_.dim() != 1) cached_input_.reshape({input.numel()});
  return linear(cached_input_, weight_.value, bias_.value);
}

Tensor Linear::backward(const Tensor& grad_output) {
  return linear_backward(cached_input_, weight_.value, grad_output,
                         weight_.grad, bias_.grad);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ----- SelfAttention2d -----

SelfAttention2d::SelfAttention2d(std::size_t channels, std::size_t attn_dim,
                                 util::Rng& rng)
    : channels_(channels), attn_dim_(attn_dim) {
  auto init = [&](Param& p, const char* pname, std::size_t rows,
                  std::size_t cols) {
    p.name = pname;
    p.value = Tensor({rows, cols});
    kaiming_uniform(p.value, cols, rng);
    p.zero_grad();
  };
  init(wq_, "attn.wq", attn_dim, channels);
  init(wk_, "attn.wk", attn_dim, channels);
  init(wv_, "attn.wv", attn_dim, channels);
  init(wo_, "attn.wo", channels, attn_dim);
}

Tensor SelfAttention2d::forward(const Tensor& input) {
  if (input.dim() != 3 || input.size(0) != channels_) {
    throw std::invalid_argument("SelfAttention2d: expected (C,H,W) input");
  }
  cached_shape_ = input.shape();
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t n = h * w;

  // Token matrix: rows are spatial positions, columns are channels.
  x_tokens_.resize({n, channels_});
  float* xt = x_tokens_.data();
  for (std::size_t c = 0; c < channels_; ++c) {
    const float* plane = input.data() + c * n;
    for (std::size_t t = 0; t < n; ++t) xt[t * channels_ + c] = plane[t];
  }

  q_ = matmul(x_tokens_, transpose2d(wq_.value));  // (n, d)
  k_ = matmul(x_tokens_, transpose2d(wk_.value));
  v_ = matmul(x_tokens_, transpose2d(wv_.value));

  const float scale = 1.0f / std::sqrt(static_cast<float>(attn_dim_));
  Tensor scores = matmul(q_, transpose2d(k_));  // (n, n)
  scores *= scale;

  // Row-wise softmax over raw row pointers (same arithmetic order).
  attn_.resize({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    const float* score_row = scores.data() + i * n;
    float* attn_row = attn_.data() + i * n;
    float row_max = score_row[0];
    for (std::size_t j = 1; j < n; ++j) row_max = std::max(row_max, score_row[j]);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const float e = std::exp(score_row[j] - row_max);
      attn_row[j] = e;
      total += e;
    }
    const float inv = static_cast<float>(1.0 / total);
    for (std::size_t j = 0; j < n; ++j) attn_row[j] *= inv;
  }

  y_ = matmul(attn_, v_);                            // (n, d)
  Tensor out_tokens = matmul(y_, transpose2d(wo_.value));  // (n, C)
  out_tokens += x_tokens_;                           // residual connection

  // Back to CHW.
  Tensor out(cached_shape_);
  for (std::size_t c = 0; c < channels_; ++c) {
    float* plane = out.data() + c * n;
    for (std::size_t t = 0; t < n; ++t) plane[t] = out_tokens.at(t, c);
  }
  return out;
}

Tensor SelfAttention2d::backward(const Tensor& grad_output) {
  const std::size_t h = cached_shape_[1], w = cached_shape_[2];
  const std::size_t n = h * w;

  // Gradient in token-major layout.
  Tensor d_out({n, channels_});
  for (std::size_t c = 0; c < channels_; ++c) {
    const float* plane = grad_output.data() + c * n;
    for (std::size_t t = 0; t < n; ++t) d_out.at(t, c) = plane[t];
  }

  // out_tokens = x_tokens + y · wo^T
  Tensor d_x = d_out;                                   // residual path
  Tensor d_y = matmul(d_out, wo_.value);                // (n, d)
  wo_.grad += matmul(transpose2d(d_out), y_);           // (C, d)

  // y = attn · v
  Tensor d_attn = matmul(d_y, transpose2d(v_));         // (n, n)
  Tensor d_v = matmul(transpose2d(attn_), d_y);         // (n, d)

  // Row-wise softmax backward: dS_i = A_i ∘ (dA_i − <dA_i, A_i>).
  Tensor d_scores({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    const float* da_row = d_attn.data() + i * n;
    const float* a_row = attn_.data() + i * n;
    float* ds_row = d_scores.data() + i * n;
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dot += static_cast<double>(da_row[j]) * a_row[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      ds_row[j] = a_row[j] * (da_row[j] - static_cast<float>(dot));
    }
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(attn_dim_));
  d_scores *= scale;

  // scores = q · k^T
  Tensor d_q = matmul(d_scores, k_);               // (n, d)
  Tensor d_k = matmul(transpose2d(d_scores), q_);  // (n, d)

  // q = x · wq^T etc.
  wq_.grad += matmul(transpose2d(d_q), x_tokens_);
  wk_.grad += matmul(transpose2d(d_k), x_tokens_);
  wv_.grad += matmul(transpose2d(d_v), x_tokens_);
  d_x += matmul(d_q, wq_.value);
  d_x += matmul(d_k, wk_.value);
  d_x += matmul(d_v, wv_.value);

  // Token-major back to CHW.
  Tensor grad_input(cached_shape_);
  for (std::size_t c = 0; c < channels_; ++c) {
    float* plane = grad_input.data() + c * n;
    for (std::size_t t = 0; t < n; ++t) plane[t] = d_x.at(t, c);
  }
  return grad_input;
}

void SelfAttention2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&wq_);
  out.push_back(&wk_);
  out.push_back(&wv_);
  out.push_back(&wo_);
}

// ----- Sequential -----

Sequential& Sequential::add(std::unique_ptr<Module> module) {
  modules_.push_back(std::move(module));
  return *this;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor current = input;
  for (auto& m : modules_) current = m->forward(current);
  return current;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor current = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    current = (*it)->backward(current);
  }
  return current;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& m : modules_) m->collect_params(out);
}

}  // namespace eco::tensor
