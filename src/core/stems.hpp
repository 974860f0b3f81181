// Modality-specific stem models (§4.1).
//
// Each sensor has a small CNN stem producing an initial feature map; the
// concatenated stem outputs F feed the gate model. In the paper the stem is
// the first convolution block of each branch's ResNet-18, trained end to
// end. Substitution (DESIGN.md §2): stems are deterministic fixed-weight
// conv feature extractors (random projections + pooling). They preserve the
// property the gate depends on — F carries enough per-modality SNR/context
// signal to predict per-configuration losses — without multi-hour branch
// training.
//
// The bank stores raw weight tensors and evaluates through the pure tensor
// ops (no Module forward caches), so one bank can be shared by any number
// of pipeline workers without synchronisation. It also exposes a
// row-restricted refresh path (`refresh_feature_rows`) that the temporal
// stem cache uses to recompute only the feature rows a frame delta touched;
// both paths run the identical per-cell arithmetic, so partial refresh is
// bitwise equal to full recompute.
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
  std::size_t out_channels = 8;
  std::uint64_t seed = 0xECu;
  /// Kernel backend stamped into every stem's Conv2dSpec; kAuto resolves
  /// from the environment at bank construction.
  tensor::Backend backend = tensor::Backend::kAuto;
};

/// One stem per sensor; produces per-sensor features and the concatenated
/// gate input F.
class StemBank {
 public:
  explicit StemBank(StemConfig config = {});

  /// Features of one sensor grid: (out_channels, H/2, W/2).
  [[nodiscard]] tensor::Tensor features(dataset::SensorKind kind,
                                        const tensor::Tensor& grid) const;

  /// Concatenated features F over all four sensors:
  /// (4*out_channels, H/2, W/2). All four convolutions dispatch through one
  /// batched tensor-op call.
  [[nodiscard]] tensor::Tensor gate_features(
      const dataset::Frame& frame) const;

  /// Arena-backed gate features: every intermediate (conv outputs, pooled
  /// maps) and the returned concatenation live in `arena`, so a warmed
  /// arena computes F with zero heap allocations. The returned reference is
  /// valid until the arena's next reset(). Bitwise identical to
  /// gate_features().
  [[nodiscard]] const tensor::Tensor& gate_features_into(
      const dataset::Frame& frame, tensor::TensorArena& arena) const;

  /// Recomputes pooled feature rows [row_begin, row_end) of `kind`'s stem
  /// for `grid` into `pooled` (shape (out_channels, H/2, W/2)); other rows
  /// are untouched. The refreshed rows are bitwise identical to what
  /// features() would produce for them.
  void refresh_feature_rows(dataset::SensorKind kind,
                            const tensor::Tensor& grid,
                            std::size_t row_begin, std::size_t row_end,
                            tensor::Tensor& pooled) const;

  [[nodiscard]] std::size_t out_channels() const noexcept {
    return config_.out_channels;
  }
  /// Channels of the concatenated gate input F.
  [[nodiscard]] std::size_t gate_channels() const noexcept {
    return config_.out_channels * dataset::kNumSensors;
  }

 private:
  struct Stem {
    tensor::Conv2dSpec spec;
    tensor::Tensor weight;  // (out_channels, 1, 3, 3)
    tensor::Tensor bias;    // (out_channels)
  };

  StemConfig config_;
  std::array<Stem, dataset::kNumSensors> stems_;
};

}  // namespace eco::core
