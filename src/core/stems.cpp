#include "core/stems.hpp"

#include <stdexcept>

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

/// (channels, H/2, W/2): the pooled extent of a (1, H, W) sensor grid.
tensor::Shape pooled_shape(std::size_t channels, const tensor::Tensor& grid) {
  if (grid.dim() != 3) {
    throw std::invalid_argument("StemBank: sensor grid must be (1, H, W)");
  }
  return {channels, grid.size(1) / 2, grid.size(2) / 2};
}

}  // namespace

StemBank::StemBank(StemConfig config)
    : backend_(tensor::resolve_backend(config.backend)) {
  for (Stem& stem : stems_) {
    stem.weight = tensor::Tensor({out_channels(), 1, 3, 3});
    stem.bias = tensor::Tensor({out_channels()});
    set_stem_kernels(stem.weight, stem.bias);
  }
}

void StemBank::pool_rows(dataset::SensorKind kind, const tensor::Tensor& grid,
                         std::size_t row_begin, std::size_t row_end,
                         tensor::Tensor& out, std::size_t channel,
                         tensor::TensorArena& scratch) const {
  const Stem& stem = stems_[static_cast<std::size_t>(kind)];
  if (backend_ != tensor::Backend::kReference) {
    tensor::conv3x3_relu_pool_rows(grid, stem.weight, stem.bias, row_begin,
                                   row_end, out, channel);
    return;
  }
  // Pooled row p consumes conv rows 2p and 2p+1. ReLU over the whole
  // intermediate also rectifies rows outside the range, which no pooled
  // row in the range reads.
  tensor::Conv2dSpec spec;
  spec.out_channels = out_channels();
  tensor::Tensor& conv = scratch.acquire(
      {out_channels(), spec.out_extent(grid.size(1)),
       spec.out_extent(grid.size(2))});
  tensor::conv2d_rows_reference(grid, stem.weight, stem.bias, spec,
                                2 * row_begin, 2 * row_end, conv);
  tensor::relu_in_place(conv);
  tensor::maxpool2x2_rows(conv, row_begin, row_end, out, channel);
}

tensor::Tensor StemBank::features(dataset::SensorKind kind,
                                  const tensor::Tensor& grid) const {
  tensor::TensorArena scratch;
  tensor::Tensor out(pooled_shape(out_channels(), grid));
  pool_rows(kind, grid, 0, out.size(1), out, 0, scratch);
  return out;
}

tensor::Tensor StemBank::gate_features(const dataset::Frame& frame) const {
  tensor::TensorArena arena;
  return gate_features_into(frame, arena);
}

const tensor::Tensor& StemBank::gate_features_into(
    const dataset::Frame& frame, tensor::TensorArena& arena) const {
  const tensor::Tensor& first = frame.grid(dataset::SensorKind::kCameraLeft);
  tensor::Tensor& features =
      arena.acquire(pooled_shape(gate_channels(), first));
  for (std::size_t s = 0; s < dataset::kNumSensors; ++s) {
    const auto kind = static_cast<dataset::SensorKind>(s);
    const tensor::Tensor& grid = frame.grid(kind);
    if (grid.shape() != first.shape()) {
      throw std::invalid_argument("StemBank: sensor grids differ in extent");
    }
    pool_rows(kind, grid, 0, features.size(1), features, s * out_channels(),
              arena);
  }
  return features;
}

void StemBank::refresh_feature_rows(dataset::SensorKind kind,
                                    const tensor::Tensor& grid,
                                    std::size_t row_begin, std::size_t row_end,
                                    tensor::Tensor& pooled) const {
  if (pooled.shape() != pooled_shape(out_channels(), grid)) {
    throw std::invalid_argument("StemBank: pooled shape mismatch");
  }
  tensor::TensorArena scratch;
  pool_rows(kind, grid, row_begin, row_end, pooled, 0, scratch);
}

}  // namespace eco::core
