#include "core/stems.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "dataset/generator.hpp"
#include "util/rng.hpp"

namespace eco::core {
namespace {

dataset::Frame test_frame(dataset::SceneType scene = dataset::SceneType::kCity) {
  dataset::DatasetConfig config;
  return dataset::generate_frame(scene, config, 3);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.data(), b.data(), a.numel());
}

StemBank bank_on(tensor::Backend backend) { return StemBank({backend}); }

TEST(StemBankTest, FeatureShapeHalvesSpatialDims) {
  const StemBank stems;
  const dataset::Frame frame = test_frame();
  const auto features =
      stems.features(dataset::SensorKind::kCameraLeft,
                     frame.grid(dataset::SensorKind::kCameraLeft));
  EXPECT_EQ(features.shape(),
            (tensor::Shape{stems.out_channels(), 24, 24}));
}

TEST(StemBankTest, GateFeaturesConcatenateAllSensors) {
  const StemBank stems;
  const dataset::Frame frame = test_frame();
  const auto features = stems.gate_features(frame);
  EXPECT_EQ(features.shape(), (tensor::Shape{stems.gate_channels(), 24, 24}));
  EXPECT_EQ(stems.gate_channels(), stems.out_channels() * 4);
}

TEST(StemBankTest, DeterministicAcrossInstances) {
  const StemBank a, b;
  const dataset::Frame frame = test_frame();
  EXPECT_TRUE(a.gate_features(frame).equals(b.gate_features(frame)));
}

TEST(StemBankTest, FeaturesAreNonNegative) {
  // Stems end in ReLU + max-pool.
  const StemBank stems;
  const dataset::Frame frame = test_frame(dataset::SceneType::kSnow);
  const auto features = stems.gate_features(frame);
  EXPECT_GE(features.min(), 0.0f);
}

TEST(StemBankTest, FeaturesCarryContextSignal) {
  // A fog frame and a city frame must produce distinguishable feature
  // statistics — otherwise the gate has nothing to learn from.
  const StemBank stems;
  dataset::DatasetConfig config;
  const auto city = dataset::generate_frame(dataset::SceneType::kCity, config, 10);
  const auto fog = dataset::generate_frame(dataset::SceneType::kFog, config, 11);
  const auto f_city = stems.gate_features(city);
  const auto f_fog = stems.gate_features(fog);
  EXPECT_GT(std::abs(f_city.mean() - f_fog.mean()) /
                std::max(1e-6f, f_city.mean()),
            0.02f);
}

TEST(StemBankTest, IdentityChannelTracksInput) {
  // Channel 0 of each stem is the identity kernel (after ReLU+pool), so a
  // brighter grid yields larger channel-0 features.
  const StemBank stems;
  tensor::Tensor dim({1, 48, 48});
  dim.fill(0.1f);
  tensor::Tensor bright({1, 48, 48});
  bright.fill(0.9f);
  const auto f_dim = stems.features(dataset::SensorKind::kLidar, dim);
  const auto f_bright = stems.features(dataset::SensorKind::kLidar, bright);
  double dim_sum = 0.0, bright_sum = 0.0;
  for (std::size_t i = 0; i < 24 * 24; ++i) {
    dim_sum += f_dim[i];
    bright_sum += f_bright[i];
  }
  EXPECT_GT(bright_sum, dim_sum * 2);
}

// The simd backend (the fused conv → ReLU → max-pool kernel) and the
// reference backend (the composition of the three ops) agree bit for bit
// on a real frame of every scene type, for every sensor and every stem
// path: features(), gate_features_into() on a warmed arena, and row
// refreshes, whose untouched rows keep their sentinel.
TEST(StemBankTest, BackendsAgreeBitwiseOnEverySceneAndSensor) {
  const StemBank reference = bank_on(tensor::Backend::kReference);
  const StemBank simd = bank_on(tensor::Backend::kSimd);
  dataset::DatasetConfig config;
  tensor::TensorArena arena;
  for (const dataset::SceneType scene : dataset::all_scene_types()) {
    SCOPED_TRACE(static_cast<int>(scene));
    const dataset::Frame frame = dataset::generate_frame(
        scene, config, 40 + static_cast<std::uint64_t>(scene));
    const tensor::Tensor expected = reference.gate_features(frame);
    for (const StemBank* bank : {&reference, &simd}) {
      arena.reset();
      EXPECT_TRUE(same_bits(bank->gate_features_into(frame, arena), expected));
      for (std::size_t s = 0; s < dataset::kNumSensors; ++s) {
        const auto kind = static_cast<dataset::SensorKind>(s);
        const tensor::Tensor& grid = frame.grid(kind);
        const tensor::Tensor features = bank->features(kind, grid);
        ASSERT_EQ(features.shape(),
                  (tensor::Shape{StemBank::out_channels(), 24, 24}));
        EXPECT_TRUE(same_bits(features.data(),
                              expected.data() + s * features.numel(),
                              features.numel()))
            << "sensor " << s;

        // A refresh of rows [7, 12) writes those rows and nothing else.
        tensor::Tensor refreshed =
            tensor::Tensor::full(features.shape(), -3.5f);
        tensor::Tensor want = refreshed;
        for (std::size_t c = 0; c < features.size(0); ++c) {
          const std::size_t first = (c * 24 + 7) * 24;
          const std::size_t last = (c * 24 + 12) * 24;
          std::copy(features.data() + first, features.data() + last,
                    want.data() + first);
        }
        bank->refresh_feature_rows(kind, grid, 7, 12, refreshed);
        EXPECT_TRUE(same_bits(refreshed, want)) << "sensor " << s;
      }
    }
  }
}

TEST(StemBankTest, BackendsAgreeBitwiseOnHostileGrids) {
  const StemBank reference = bank_on(tensor::Backend::kReference);
  const StemBank simd = bank_on(tensor::Backend::kSimd);
  const float inf = std::numeric_limits<float>::infinity();
  const float hostile[] = {std::numeric_limits<float>::quiet_NaN(), inf,
                           -inf, -0.0f, 1e-40f, 3e38f};
  util::Rng rng(64);
  for (int trial = 0; trial < 16; ++trial) {
    tensor::Tensor grid({1, 48, 48});
    for (float& v : grid.vec()) {
      const std::size_t pick = rng.index(12);
      v = pick < 6 ? hostile[pick] : rng.uniform_f(-1.0f, 1.0f);
    }
    EXPECT_TRUE(same_bits(simd.features(dataset::SensorKind::kRadar, grid),
                          reference.features(dataset::SensorKind::kRadar,
                                             grid)))
        << "trial " << trial;
  }
}

TEST(StemBankTest, RejectsGridsSmallerThanOnePooledCell) {
  for (const tensor::Backend backend :
       {tensor::Backend::kReference, tensor::Backend::kSimd}) {
    const StemBank stems = bank_on(backend);
    const tensor::Tensor thin = tensor::Tensor::full({1, 1, 8}, 1.0f);
    EXPECT_THROW((void)stems.features(dataset::SensorKind::kLidar, thin),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace eco::core
