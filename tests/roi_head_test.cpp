#include "detect/roi_head.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "detect/branch_detector.hpp"
#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "util/rng.hpp"

namespace eco::detect {
namespace {

tensor::Tensor grid_with_rect(std::size_t size, Box rect, float amplitude) {
  tensor::Tensor grid({1, size, size});
  for (std::size_t y = static_cast<std::size_t>(rect.y1);
       y < static_cast<std::size_t>(rect.y2); ++y) {
    for (std::size_t x = static_cast<std::size_t>(rect.x1);
         x < static_cast<std::size_t>(rect.x2); ++x) {
      grid.at(0, y, x) = amplitude;
    }
  }
  return grid;
}

std::vector<ClassPrototype> two_prototypes() {
  return {
      {ObjectClass::kCar, 0.60f, 6.0f, 4.0f},
      {ObjectClass::kPedestrian, 0.55f, 2.0f, 3.0f},
  };
}

TEST(ExtractRegionsTest, FindsSeparateComponents) {
  tensor::Tensor grid({1, 20, 20});
  for (std::size_t y = 2; y < 6; ++y)
    for (std::size_t x = 2; x < 8; ++x) grid.at(0, y, x) = 0.5f;
  for (std::size_t y = 12; y < 15; ++y)
    for (std::size_t x = 12; x < 14; ++x) grid.at(0, y, x) = 0.7f;
  const auto regions = extract_regions(grid, 0.25f, 3);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_FLOAT_EQ(regions[0].box.x1, 2.0f);
  EXPECT_FLOAT_EQ(regions[0].box.x2, 8.0f);
  EXPECT_EQ(regions[0].area, 24u);
  EXPECT_NEAR(regions[0].mean_amplitude, 0.5f, 1e-5f);
  EXPECT_NEAR(regions[1].peak_amplitude, 0.7f, 1e-5f);
}

TEST(ExtractRegionsTest, MinAreaFiltersSpeckle) {
  tensor::Tensor grid({1, 10, 10});
  grid.at(0, 5, 5) = 1.0f;  // single cell
  EXPECT_TRUE(extract_regions(grid, 0.5f, 3).empty());
  EXPECT_EQ(extract_regions(grid, 0.5f, 1).size(), 1u);
}

TEST(ExtractRegionsTest, DiagonalCellsConnect) {
  tensor::Tensor grid({1, 10, 10});
  grid.at(0, 2, 2) = 1.0f;
  grid.at(0, 3, 3) = 1.0f;
  grid.at(0, 4, 4) = 1.0f;
  const auto regions = extract_regions(grid, 0.5f, 3);
  ASSERT_EQ(regions.size(), 1u);  // 8-connectivity joins the diagonal
  EXPECT_EQ(regions[0].area, 3u);
}

TEST(ExtractRegionsTest, ThresholdSplitsWeakFromStrong) {
  tensor::Tensor grid({1, 10, 10});
  for (std::size_t x = 1; x < 4; ++x) grid.at(0, 1, x) = 0.9f;
  for (std::size_t x = 6; x < 9; ++x) grid.at(0, 1, x) = 0.2f;
  EXPECT_EQ(extract_regions(grid, 0.5f, 2).size(), 1u);
  EXPECT_EQ(extract_regions(grid, 0.1f, 2).size(), 2u);
}

TEST(RoiHeadTest, DetectsAndClassifiesCleanRect) {
  const Box rect{10, 10, 16, 14};  // car-sized, amplitude 0.6
  const tensor::Tensor grid = grid_with_rect(32, rect, 0.6f);
  const Rpn rpn;
  const RoiHead head(RoiHeadConfig{}, two_prototypes());
  const auto detections = head.run(grid, rpn.propose(grid));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].cls, ObjectClass::kCar);
  EXPECT_GT(iou(detections[0].box, rect), 0.8f);
  EXPECT_GT(detections[0].score, 0.5f);
  ASSERT_EQ(detections[0].class_scores.size(), 2u);
  EXPECT_GT(detections[0].class_scores[0], detections[0].class_scores[1]);
}

TEST(RoiHeadTest, ClassifiesByGeometryWhenAmplitudesTie) {
  const Box ped{10, 10, 12, 13};  // 2x3 pedestrian extent
  const tensor::Tensor grid = grid_with_rect(32, ped, 0.57f);
  const Rpn rpn;
  const RoiHead head(RoiHeadConfig{}, two_prototypes());
  const auto detections = head.run(grid, rpn.propose(grid));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].cls, ObjectClass::kPedestrian);
}

TEST(RoiHeadTest, RegionWithoutProposalIsRejected) {
  const Box rect{10, 10, 16, 14};
  const tensor::Tensor grid = grid_with_rect(32, rect, 0.6f);
  const RoiHead head(RoiHeadConfig{}, two_prototypes());
  EXPECT_TRUE(head.run(grid, /*proposals=*/{}).empty());
}

TEST(RoiHeadTest, EmptyGridProducesNoDetections) {
  const Rpn rpn;
  const RoiHead head(RoiHeadConfig{}, two_prototypes());
  const tensor::Tensor grid({1, 32, 32});
  EXPECT_TRUE(head.run(grid, rpn.propose(grid)).empty());
}

TEST(RoiHeadTest, BoxDeflateShrinksOutput) {
  const Box rect{8, 8, 18, 16};
  const tensor::Tensor grid = grid_with_rect(32, rect, 0.6f);
  const Rpn rpn;
  RoiHeadConfig deflated;
  deflated.box_deflate = 0.5f;
  const RoiHead head_full(RoiHeadConfig{}, two_prototypes());
  const RoiHead head_half(deflated, two_prototypes());
  const auto full = head_full.run(grid, rpn.propose(grid));
  const auto half = head_half.run(grid, rpn.propose(grid));
  ASSERT_FALSE(full.empty());
  ASSERT_FALSE(half.empty());
  EXPECT_NEAR(half[0].box.width(), 0.5f * full[0].box.width(), 0.6f);
  EXPECT_NEAR(half[0].box.cx(), full[0].box.cx(), 0.5f);
}

TEST(RoiHeadTest, MinScoreFiltersWeakRegions) {
  const Box rect{10, 10, 16, 14};
  const tensor::Tensor grid = grid_with_rect(32, rect, 0.08f);
  const Rpn rpn;
  RoiHeadConfig strict;
  strict.min_score = 0.99f;
  const RoiHead head(strict, two_prototypes());
  EXPECT_TRUE(head.run(grid, rpn.propose(grid)).empty());
}

TEST(RoiHeadTest, TwoObjectsTwoDetections) {
  tensor::Tensor grid({1, 32, 32});
  const Box a{4, 4, 10, 8}, b{20, 20, 26, 24};
  for (const Box& rect : {a, b}) {
    for (std::size_t y = static_cast<std::size_t>(rect.y1);
         y < static_cast<std::size_t>(rect.y2); ++y) {
      for (std::size_t x = static_cast<std::size_t>(rect.x1);
           x < static_cast<std::size_t>(rect.x2); ++x) {
        grid.at(0, y, x) = 0.6f;
      }
    }
  }
  const Rpn rpn;
  const RoiHead head(RoiHeadConfig{}, two_prototypes());
  const auto detections = head.run(grid, rpn.propose(grid));
  EXPECT_EQ(detections.size(), 2u);
}

// Grids with no cells: nothing to select, so no detections, on every
// backend, with and without scratch, alone and behind the RPN.
TEST(RoiHeadTest, EmptyExtentsYieldNoDetections) {
  for (const tensor::Backend backend :
       {tensor::Backend::kReference, tensor::Backend::kSimd}) {
    BranchConfig config;
    config.rpn.backend = backend;
    config.roi_per_input.front().backend = backend;
    const BranchDetector detector(config, {two_prototypes()});
    const RoiHead head(config.roi_per_input.front(), two_prototypes());
    for (const tensor::Shape& shape :
         {tensor::Shape{1, 0, 0}, tensor::Shape{1, 0, 5},
          tensor::Shape{1, 5, 0}}) {
      const tensor::Tensor grid(shape);
      ScanScratch scratch;
      EXPECT_TRUE(head.run(grid, {}).empty());
      EXPECT_TRUE(head.run(grid, {}, &scratch).empty());
      EXPECT_TRUE(Rpn(config.rpn).propose(grid, &scratch).empty());
      EXPECT_TRUE(detector.scan_channel(0, grid).empty());
      EXPECT_TRUE(detector.scan_channel(0, grid, &scratch).empty());
    }
  }
}

// A NaN cell has no place in the percentile's order: the head returns no
// detections before it selects anything (the NaN mean would have emptied
// the mask anyway), on both backends.
TEST(RoiHeadTest, NanCellYieldsNoDetections) {
  const Box rect{8, 8, 18, 16};
  tensor::Tensor grid = grid_with_rect(32, rect, 0.6f);
  for (const tensor::Backend backend :
       {tensor::Backend::kReference, tensor::Backend::kSimd}) {
    RpnConfig rpn_config;
    rpn_config.backend = backend;
    RoiHeadConfig roi_config;
    roi_config.backend = backend;
    const Rpn rpn(rpn_config);
    const RoiHead head(roi_config, two_prototypes());
    ScanScratch scratch;
    ASSERT_FALSE(head.run(grid, rpn.propose(grid), &scratch).empty());
    tensor::Tensor poisoned = grid;
    poisoned.at(0, 30, 1) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(head.run(poisoned, rpn.propose(poisoned), &scratch).empty());
    EXPECT_TRUE(head.run(poisoned, rpn.propose(poisoned)).empty());
  }
}

// The oracle: a whole copy + std::nth_element, as the head always did.
SignalLevels nth_element_levels(std::vector<float> values) {
  const auto nth =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() * 95 / 100);
  std::nth_element(values.begin(), nth, values.end());
  return {*nth, *std::max_element(nth, values.end())};
}

// signal_levels equals the oracle bit for bit on both of its paths: the
// radix select over sign-clear values (ties, +0, subnormals, +Inf, huge
// values) and the whole-copy fallback (-0, negatives, -Inf).
TEST(SignalLevelsTest, MatchesNthElementOnBothPaths) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> sign_clear = {0.0f,  1e-40f, 1e-45f, 0.5f,
                                         0.5f,  1.0f,   3e38f,  kInf,
                                         0.25f, 0.125f};
  const std::vector<float> signed_values = {-0.0f, -0.25f, -kInf, -1e-40f,
                                            -3e38f};
  util::Rng rng(404);
  std::vector<float> buffer;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{19}, std::size_t{20},
                              std::size_t{21}, std::size_t{100},
                              std::size_t{2304}}) {
    for (int variant = 0; variant < 8; ++variant) {
      std::vector<float> values(n);
      for (float& v : values) {
        // Quantized ({0, 0.5, 1}), continuous, or drawn from the specials.
        v = variant % 4 == 0
                ? 0.5f * static_cast<float>(rng.index(3))
                : variant % 4 == 1 ? rng.uniform_f(0.0f, 2.0f)
                                   : sign_clear[rng.index(sign_clear.size())];
      }
      const bool fallback = variant >= 4;
      if (fallback) {
        // Signed patterns in a few cells (all of them when variant 7).
        const std::size_t count = variant == 7 ? n : 1 + rng.index(3);
        for (std::size_t i = 0; i < count; ++i) {
          values[rng.index(n)] =
              variant == 7 ? -rng.uniform_f(0.0f, 1.0f)
                           : signed_values[rng.index(signed_values.size())];
        }
      }
      const SignalLevels expected = nth_element_levels(values);
      const std::optional<SignalLevels> actual =
          signal_levels(values.data(), n, buffer);
      ASSERT_TRUE(actual.has_value());
      EXPECT_EQ(std::bit_cast<std::uint32_t>(actual->p95),
                std::bit_cast<std::uint32_t>(expected.p95))
          << "n=" << n << " variant=" << variant;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(actual->peak),
                std::bit_cast<std::uint32_t>(expected.peak))
          << "n=" << n << " variant=" << variant;
    }
  }
}

TEST(SignalLevelsTest, NanHasNoLevels) {
  std::vector<float> buffer;
  for (const float other : {0.5f, -0.5f}) {
    const std::vector<float> values = {
        other, std::numeric_limits<float>::quiet_NaN(), 0.25f};
    EXPECT_FALSE(signal_levels(values.data(), values.size(), buffer));
  }
}

}  // namespace
}  // namespace eco::detect
