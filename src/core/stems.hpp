// Modality-specific stem models (§4.1).
//
// Each sensor has a small CNN stem producing an initial feature map; the
// concatenated stem outputs F feed the gate model. In the paper the stem is
// the first convolution block of each branch's ResNet-18, trained end to
// end. Substitution (DESIGN.md §2): stems are deterministic fixed-weight
// conv feature extractors (eight classical 3×3 filters, ReLU, 2×2
// max-pool). They preserve the property the gate depends on — F carries
// enough per-modality SNR/context signal to predict per-configuration
// losses — without multi-hour branch training.
//
// The bank stores raw weight tensors and evaluates through pure tensor
// kernels (no Module forward caches), so one bank can be shared by any
// number of pipeline workers without synchronisation. Every path — the
// allocating features(), the arena-backed gate_features_into() and the
// row-restricted refresh_feature_rows() the temporal stem cache uses —
// runs each sensor through one fused row kernel,
// tensor::conv3x3_relu_pool_rows, that writes pooled rows straight into the
// output's channel slice. The reference backend composes
// conv2d_rows_reference, ReLU and maxpool2x2_rows instead, the ground truth
// the fused kernel is pinned to bit for bit. Both compute any pooled row
// the same way over any row range, so partial refresh is bitwise equal to
// full recompute.
#pragma once

#include <array>

#include "dataset/generator.hpp"
#include "dataset/sensor_model.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace eco::core {

/// Stem configuration.
struct StemConfig {
  /// Kernel backend of every stem; kAuto resolves from the environment at
  /// bank construction.
  tensor::Backend backend = tensor::Backend::kAuto;
};

/// One stem per sensor; produces per-sensor features and the concatenated
/// gate input F.
class StemBank {
 public:
  explicit StemBank(StemConfig config = {});

  /// Features of one sensor grid: (out_channels(), H/2, W/2).
  [[nodiscard]] tensor::Tensor features(dataset::SensorKind kind,
                                        const tensor::Tensor& grid) const;

  /// Concatenated features F over all four sensors, in sensor order:
  /// (gate_channels(), H/2, W/2). Every sensor grid must share one extent.
  [[nodiscard]] tensor::Tensor gate_features(
      const dataset::Frame& frame) const;

  /// Arena-backed gate features: F (and, on the reference backend, the
  /// conv intermediates) live in `arena`, so a warmed arena computes F with
  /// zero heap allocations. The returned reference is valid until the
  /// arena's next reset(). Bitwise identical to gate_features().
  [[nodiscard]] const tensor::Tensor& gate_features_into(
      const dataset::Frame& frame, tensor::TensorArena& arena) const;

  /// Recomputes pooled feature rows [row_begin, row_end) of `kind`'s stem
  /// for `grid` into `pooled` (shape (out_channels(), H/2, W/2)); other
  /// rows are untouched. The refreshed rows are bitwise identical to what
  /// features() would produce for them. Benchmark-only: its one caller is
  /// exec::TemporalStemCache, which only perfbench's frame_latency drives;
  /// a [benchmark] change retires both.
  void refresh_feature_rows(dataset::SensorKind kind,
                            const tensor::Tensor& grid,
                            std::size_t row_begin, std::size_t row_end,
                            tensor::Tensor& pooled) const;

  /// Channels per sensor: the eight fixed filters.
  [[nodiscard]] static constexpr std::size_t out_channels() noexcept {
    return tensor::kStemChannels;
  }
  /// Channels of the concatenated gate input F.
  [[nodiscard]] static constexpr std::size_t gate_channels() noexcept {
    return out_channels() * dataset::kNumSensors;
  }

 private:
  struct Stem {
    tensor::Tensor weight;  // (8, 1, 3, 3)
    tensor::Tensor bias;    // (8)
  };

  /// Pooled rows [row_begin, row_end) of `kind`'s stem over `grid` into
  /// channels [channel, channel + 8) of `out`. The reference backend takes
  /// its conv intermediate from `scratch`; the fused kernel needs none.
  void pool_rows(dataset::SensorKind kind, const tensor::Tensor& grid,
                 std::size_t row_begin, std::size_t row_end,
                 tensor::Tensor& out, std::size_t channel,
                 tensor::TensorArena& scratch) const;

  tensor::Backend backend_;
  std::array<Stem, dataset::kNumSensors> stems_;
};

}  // namespace eco::core
