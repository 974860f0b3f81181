// Pins the fused stem kernel, tensor::conv3x3_relu_pool_rows, bit for bit
// against the composition it replaces — conv2d_rows_reference, then ReLU,
// then maxpool2x2_rows — on hostile values (NaN, ±Inf, −0, ±FLT_TRUE_MIN,
// ±FLT_MAX), on extents whose odd last row or column the pool drops, on
// extents below, at and around one vector of conv cells, and over every
// single-row range and random row ranges, with a sentinel proving that
// rows and channels outside the range stay untouched. Comparisons are on
// bits (memcmp), so −0 versus +0 and NaN payloads would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace eco::tensor {
namespace {

struct Extent {
  std::size_t h, w;
};

// 2x2 is the smallest valid input; odd extents drop a conv row or column;
// 5x7 and 9x17 leave conv cells past the last whole 4- or 8-lane vector;
// 48x48 is the sensor grid.
const std::vector<Extent> kExtents = {{2, 2}, {2, 3},   {3, 2},   {5, 7},
                                      {9, 17}, {47, 49}, {48, 48}};

constexpr float kSentinel = -7.75f;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

Tensor random_grid(const Extent& e, util::Rng& rng) {
  Tensor grid({1, e.h, e.w});
  for (float& v : grid.vec()) v = rng.uniform_f(-2.0f, 2.0f);
  return grid;
}

// Every cell drawn from the hostile values or a plain one.
Tensor hostile_grid(const Extent& e, util::Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {std::numeric_limits<float>::quiet_NaN(),
                          inf,
                          -inf,
                          -0.0f,
                          0.0f,
                          FLT_TRUE_MIN,
                          -FLT_TRUE_MIN,
                          FLT_MAX,
                          -FLT_MAX,
                          1e-40f,
                          3e38f};
  constexpr std::size_t kValues = sizeof(values) / sizeof(values[0]);
  Tensor grid({1, e.h, e.w});
  for (float& v : grid.vec()) {
    const std::size_t pick = rng.index(2 * kValues);
    v = pick < kValues ? values[pick] : rng.uniform_f(-1.0f, 1.0f);
  }
  return grid;
}

// Finite weights with exact zeros (so an in-bounds Inf tap makes NaN) and
// a −0 bias.
void random_stem(util::Rng& rng, Tensor& weight, Tensor& bias) {
  weight = Tensor({kStemChannels, 1, 3, 3});
  bias = Tensor({kStemChannels});
  for (float& v : weight.vec()) {
    v = rng.index(4) == 0 ? 0.0f : rng.uniform_f(-1.5f, 1.5f);
  }
  for (float& v : bias.vec()) v = rng.uniform_f(-0.5f, 0.5f);
  bias[0] = -0.0f;
}

// The reference composition over pooled rows [row_begin, row_end).
void compose(const Tensor& grid, const Tensor& weight, const Tensor& bias,
             std::size_t row_begin, std::size_t row_end, Tensor& out,
             std::size_t channel) {
  Conv2dSpec spec;
  spec.out_channels = kStemChannels;
  Tensor conv({kStemChannels, grid.size(1), grid.size(2)});
  conv2d_rows_reference(grid, weight, bias, spec, 2 * row_begin, 2 * row_end,
                        conv);
  relu_in_place(conv);
  maxpool2x2_rows(conv, row_begin, row_end, out, channel);
}

// Output with room for three stems, written at the middle slice.
constexpr std::size_t kChannel = kStemChannels;
Tensor sentinel_output(const Extent& e) {
  return Tensor::full({3 * kStemChannels, e.h / 2, e.w / 2}, kSentinel);
}

TEST(StemKernelTest, MatchesCompositionOnPlainAndHostileGrids) {
  util::Rng rng(2024);
  for (const Extent& e : kExtents) {
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(testing::Message() << e.h << "x" << e.w << " trial "
                                      << trial);
      Tensor weight, bias;
      random_stem(rng, weight, bias);
      const Tensor grid =
          trial % 2 == 0 ? random_grid(e, rng) : hostile_grid(e, rng);
      Tensor fused = sentinel_output(e);
      Tensor expected = sentinel_output(e);
      conv3x3_relu_pool_rows(grid, weight, bias, 0, e.h / 2, fused, kChannel);
      compose(grid, weight, bias, 0, e.h / 2, expected, kChannel);
      EXPECT_TRUE(same_bits(fused, expected));
    }
  }
}

TEST(StemKernelTest, RowRangesMatchFullPassAndTouchNothingElse) {
  util::Rng rng(77);
  for (const Extent& e : kExtents) {
    SCOPED_TRACE(testing::Message() << e.h << "x" << e.w);
    Tensor weight, bias;
    random_stem(rng, weight, bias);
    const Tensor grid = hostile_grid(e, rng);
    const std::size_t ph = e.h / 2, pw = e.w / 2;
    Tensor full = sentinel_output(e);
    conv3x3_relu_pool_rows(grid, weight, bias, 0, ph, full, kChannel);

    // Rows [row_begin, row_end) of the stem's slice equal the full pass;
    // every other value keeps the sentinel.
    auto check_range = [&](std::size_t row_begin, std::size_t row_end) {
      SCOPED_TRACE(testing::Message() << "rows [" << row_begin << ", "
                                      << row_end << ")");
      Tensor part = sentinel_output(e);
      conv3x3_relu_pool_rows(grid, weight, bias, row_begin, row_end, part,
                             kChannel);
      Tensor expected = sentinel_output(e);
      compose(grid, weight, bias, row_begin, row_end, expected, kChannel);
      EXPECT_TRUE(same_bits(part, expected));
      for (std::size_t c = 0; c < part.size(0); ++c) {
        const bool in_slice = c >= kChannel && c < kChannel + kStemChannels;
        for (std::size_t y = 0; y < ph; ++y) {
          const bool in_range = in_slice && y >= row_begin && y < row_end;
          const float* got = part.data() + (c * ph + y) * pw;
          const float* want = full.data() + (c * ph + y) * pw;
          for (std::size_t x = 0; x < pw; ++x) {
            if (in_range) {
              ASSERT_EQ(std::memcmp(got + x, want + x, sizeof(float)), 0)
                  << "c=" << c << " y=" << y << " x=" << x;
            } else {
              ASSERT_EQ(got[x], kSentinel) << "c=" << c << " y=" << y
                                           << " x=" << x;
            }
          }
        }
      }
    };
    for (std::size_t row = 0; row < ph; ++row) check_range(row, row + 1);
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t a = rng.index(ph + 1);
      const std::size_t b = rng.index(ph + 1);
      check_range(std::min(a, b), std::max(a, b));  // may be empty
    }
  }
}

TEST(StemKernelTest, RejectsDegenerateExtentsAndBadArguments) {
  util::Rng rng(5);
  Tensor weight, bias;
  random_stem(rng, weight, bias);
  Tensor out({kStemChannels, 2, 2});
  for (const Extent& e : {Extent{1, 1}, Extent{1, 6}, Extent{6, 1}}) {
    Tensor tiny = Tensor::full({1, e.h, e.w}, 1.0f);
    Tensor tiny_out({kStemChannels, e.h / 2, e.w / 2});
    EXPECT_THROW(
        conv3x3_relu_pool_rows(tiny, weight, bias, 0, 0, tiny_out, 0),
        std::invalid_argument)
        << e.h << "x" << e.w;
  }

  const Tensor grid = Tensor::full({1, 4, 4}, 1.0f);
  EXPECT_NO_THROW(conv3x3_relu_pool_rows(grid, weight, bias, 0, 2, out, 0));
  // Non-finite weights would turn a zero-padded tap into NaN.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Tensor poisoned = weight;
    poisoned[4] = bad;
    EXPECT_THROW(conv3x3_relu_pool_rows(grid, poisoned, bias, 0, 2, out, 0),
                 std::invalid_argument);
  }
  // Rows past the pooled extent, a reversed range, a channel slice past
  // the output, a wrong output extent, a multi-channel input.
  EXPECT_THROW(conv3x3_relu_pool_rows(grid, weight, bias, 0, 3, out, 0),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_relu_pool_rows(grid, weight, bias, 2, 1, out, 0),
               std::invalid_argument);
  EXPECT_THROW(conv3x3_relu_pool_rows(grid, weight, bias, 0, 2, out, 1),
               std::invalid_argument);
  Tensor wide({kStemChannels, 2, 3});
  EXPECT_THROW(conv3x3_relu_pool_rows(grid, weight, bias, 0, 2, wide, 0),
               std::invalid_argument);
  const Tensor two_channel = Tensor::full({2, 4, 4}, 1.0f);
  EXPECT_THROW(
      conv3x3_relu_pool_rows(two_channel, weight, bias, 0, 2, out, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace eco::tensor
