#include "core/stems.hpp"

#include <algorithm>

#include "tensor/nn.hpp"
#include "util/rng.hpp"

namespace eco::core {

namespace {

/// Fixed stem kernels: the classical filters trained first-layer convs
/// converge to (identity, smoothing, oriented edges, Laplacian, high-pass,
/// centre-surround). They expose exactly the statistics the gate needs —
/// signal level, edge density, noise floor — per sensor.
void set_stem_kernels(tensor::Tensor& weight, tensor::Tensor& bias) {
  weight.zero();  // (8, 1, 3, 3)
  auto set = [&](std::size_t oc, std::initializer_list<float> k) {
    std::size_t i = 0;
    for (float v : k) {
      weight.at(oc, 0, i / 3, i % 3) = v;
      ++i;
    }
  };
  // identity
  set(0, {0, 0, 0, 0, 1, 0, 0, 0, 0});
  // 3x3 box blur
  set(1, {.111f, .111f, .111f, .111f, .111f, .111f, .111f, .111f, .111f});
  // Sobel X (positive phase; ReLU keeps rising edges)
  set(2, {-1, 0, 1, -2, 0, 2, -1, 0, 1});
  // Sobel Y
  set(3, {-1, -2, -1, 0, 0, 0, 1, 2, 1});
  // Laplacian
  set(4, {0, 1, 0, 1, -4, 1, 0, 1, 0});
  // inverted Laplacian (captures the negative phase lost to ReLU)
  set(5, {0, -1, 0, -1, 4, -1, 0, -1, 0});
  // high-pass (identity - blur)
  set(6, {-.111f, -.111f, -.111f, -.111f, .889f, -.111f, -.111f, -.111f,
          -.111f});
  // centre-surround (difference of local means)
  set(7, {-.25f, -.25f, -.25f, -.25f, 2.0f, -.25f, -.25f, -.25f, -.25f});
  bias.zero();
}

/// ReLU over rows [row_begin, row_end) of a CHW tensor; the per-element
/// update matches tensor::relu exactly.
void relu_rows(tensor::Tensor& t, std::size_t row_begin, std::size_t row_end) {
  const std::size_t c = t.size(0), h = t.size(1), w = t.size(2);
  for (std::size_t ch = 0; ch < c; ++ch) {
    float* row0 = t.data() + (ch * h + row_begin) * w;
    for (std::size_t i = 0; i < (row_end - row_begin) * w; ++i) {
      row0[i] = row0[i] > 0.0f ? row0[i] : 0.0f;
    }
  }
}

}  // namespace

StemBank::StemBank(StemConfig config) : config_(config) {
  util::Rng rng(config_.seed);
  for (std::size_t s = 0; s < dataset::kNumSensors; ++s) {
    Stem& stem = stems_[s];
    stem.spec.in_channels = 1;
    stem.spec.out_channels = config_.out_channels;
    stem.spec.kernel = 3;
    stem.spec.stride = 1;
    stem.spec.padding = 1;
    stem.spec.backend = tensor::resolve_backend(config_.backend);
    stem.weight = tensor::Tensor(
        {config_.out_channels, 1, stem.spec.kernel, stem.spec.kernel});
    // Consume the rng exactly as the previous Conv2d-module bank did so the
    // random-projection fallback (out_channels != 8) keeps its weights.
    tensor::kaiming_uniform(stem.weight, stem.spec.kernel * stem.spec.kernel,
                            rng);
    stem.bias = tensor::Tensor({config_.out_channels});
    if (config_.out_channels == 8) set_stem_kernels(stem.weight, stem.bias);
  }
}

tensor::Tensor StemBank::features(dataset::SensorKind kind,
                                  const tensor::Tensor& grid) const {
  const Stem& stem = stems_[static_cast<std::size_t>(kind)];
  return tensor::maxpool2x2(
      tensor::relu(tensor::conv2d(grid, stem.weight, stem.bias, stem.spec)));
}

tensor::Tensor StemBank::gate_features(const dataset::Frame& frame) const {
  tensor::TensorArena arena;
  return gate_features_into(frame, arena);
}

const tensor::Tensor& StemBank::gate_features_into(
    const dataset::Frame& frame, tensor::TensorArena& arena) const {
  // Conv outputs are acquired with their exact shapes up front so
  // conv2d_batch never resizes them, then rectified in place and pooled /
  // concatenated into further arena tensors. Each step runs the identical
  // per-cell arithmetic as the allocating pipeline (relu_in_place ==
  // relu, maxpool2x2_into == maxpool2x2, concat_channels_into ==
  // concat_channels), so F is bitwise unchanged.
  std::array<tensor::Tensor*, dataset::kNumSensors> conv_out{};
  std::vector<tensor::Conv2dBatchItem> batch;
  batch.reserve(dataset::kNumSensors);
  const tensor::Conv2dSpec& spec = stems_.front().spec;
  for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
    const auto s = static_cast<std::size_t>(kind);
    const tensor::Tensor& grid = frame.grid(kind);
    conv_out[s] = &arena.acquire({spec.out_channels,
                                  spec.out_extent(grid.size(1)),
                                  spec.out_extent(grid.size(2))});
    batch.push_back({&grid, &stems_[s].weight, &stems_[s].bias, conv_out[s]});
  }
  tensor::conv2d_batch(batch, spec);
  std::vector<const tensor::Tensor*> parts;
  parts.reserve(dataset::kNumSensors);
  for (std::size_t s = 0; s < dataset::kNumSensors; ++s) {
    tensor::relu_in_place(*conv_out[s]);
    tensor::Tensor& pooled = arena.acquire(
        {conv_out[s]->size(0), conv_out[s]->size(1) / 2,
         conv_out[s]->size(2) / 2});
    tensor::maxpool2x2_into(*conv_out[s], pooled);
    parts.push_back(&pooled);
  }
  std::size_t channels = 0;
  for (const tensor::Tensor* p : parts) channels += p->size(0);
  tensor::Tensor& features =
      arena.acquire({channels, parts.front()->size(1), parts.front()->size(2)});
  tensor::concat_channels_into(parts, features);
  return features;
}

void StemBank::refresh_feature_rows(dataset::SensorKind kind,
                                    const tensor::Tensor& grid,
                                    std::size_t row_begin, std::size_t row_end,
                                    tensor::Tensor& pooled) const {
  if (row_begin >= row_end) return;
  const Stem& stem = stems_[static_cast<std::size_t>(kind)];
  const std::size_t oh = stem.spec.out_extent(grid.size(1));
  const std::size_t ow = stem.spec.out_extent(grid.size(2));
  // Pooled row p consumes conv rows 2p and 2p+1.
  const std::size_t conv_begin = row_begin * 2;
  const std::size_t conv_end = std::min(oh, row_end * 2);
  tensor::Tensor conv({stem.spec.out_channels, oh, ow});
  tensor::conv2d_rows(grid, stem.weight, stem.bias, stem.spec, conv_begin,
                      conv_end, conv);
  relu_rows(conv, conv_begin, conv_end);
  tensor::maxpool2x2_rows(conv, row_begin, row_end, pooled);
}

}  // namespace eco::core
