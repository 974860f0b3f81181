#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace eco::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(14);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.poisson(2.5);
  EXPECT_NEAR(total / n, 2.5, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(15);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(16);
  double total = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += rng.poisson(50.0);
  EXPECT_NEAR(total / n, 50.0, 1.0);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(18);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.categorical({1.0, 2.0, 1.0})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.50, 0.02);
}

TEST(RngTest, CategoricalIgnoresNegativeWeights) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.categorical({-1.0, 0.0, 5.0}), 2u);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(20);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(21);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(1);  // parent state advanced -> different child
  EXPECT_NE(child_a.next_u64(), child_b.next_u64());
}

TEST(RngTest, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(RngTest, IndexAlwaysBelowBound) {
  Rng rng(22);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
}

// fill_normal_polar is n calls of normal_polar() bit for bit: the same
// deviates, and the generator left in the same state (cached deviate and
// raw stream). Counts straddle the chunk in pairs and in deviates, the odd
// tail and the render's 48x48 grid; a cached deviate is present or absent
// on entry.
TEST(RngTest, FillNormalPolarMatchesScalarDraws) {
  constexpr std::size_t kPairs = Rng::kPolarChunkPairs;
  constexpr std::size_t kDeviates = 2 * kPairs;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        kPairs - 1, kPairs, kPairs + 1, kDeviates - 1, kDeviates,
        kDeviates + 1, 2 * kDeviates + 1, std::size_t{2304},
        std::size_t{2305}}) {
    for (const bool cached : {false, true}) {
      for (const std::uint64_t seed : {3ull, 2022ull}) {
        Rng batched(seed), scalar(seed);
        if (cached) {
          ASSERT_EQ(batched.normal_polar(), scalar.normal_polar());
        }
        std::vector<double> out(n);
        batched.fill_normal_polar(0.25, 0.07, out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const double expected = scalar.normal_polar(0.25, 0.07);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                    std::bit_cast<std::uint64_t>(expected))
              << "n=" << n << " cached=" << cached << " seed=" << seed
              << " i=" << i;
        }
        // The next deviate reads the cache when one is left; the raw
        // stream after it checks every uniform consumed.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.normal_polar()),
                  std::bit_cast<std::uint64_t>(scalar.normal_polar()))
            << "n=" << n << " cached=" << cached;
        EXPECT_EQ(batched.next_u64(), scalar.next_u64())
            << "n=" << n << " cached=" << cached;
      }
    }
  }
}

// Property sweep: moment sanity across many seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, ReproducibleSequence) {
  Rng a(GetParam()), b(GetParam());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 2022ull,
                                           0xFFFFFFFFFFFFFFFFull,
                                           0xDEADBEEFull));

}  // namespace
}  // namespace eco::util
