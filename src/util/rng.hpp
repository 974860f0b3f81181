// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components in EcoFusion (scene generation, sensor noise,
// weight initialisation, data splits) draw from eco::util::Rng so that a
// single 64-bit seed reproduces every experiment bit-for-bit.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded via splitmix64.
// It is not cryptographic; it is fast, has 256 bits of state, and passes
// BigCrush, which is what a simulation substrate needs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace eco::util {

/// splitmix64 step: used for seeding and for cheap stateless hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (one splitmix64 round).
[[nodiscard]] std::uint64_t hash64(std::uint64_t value) noexcept;

/// Combine two 64-bit values into one (order-sensitive).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256++ deterministic PRNG with convenience distributions.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Raw 64 uniform bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform float in [lo, hi).
  [[nodiscard]] float uniform_f(float lo, float hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// Standard normal via Box-Muller (cached second deviate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Standard normal via the Marsaglia polar method (cached second deviate).
  /// Trig-free, so roughly 2x cheaper per draw than normal(); intended for
  /// dense per-cell noise fields where the draw count dominates. Consumes a
  /// different number of uniforms than normal(), so the two samplers are
  /// distinct streams — pick one per call site and keep it. The polar cache
  /// is independent of normal()'s Box-Muller cache.
  [[nodiscard]] double normal_polar() noexcept;

  /// Polar normal with given mean / standard deviation.
  [[nodiscard]] double normal_polar(double mean, double stddev) noexcept;

  /// Fills out[0..n) with mean + stddev * N(0,1), bitwise identical to
  /// calling normal_polar(mean, stddev) n times on the same generator,
  /// including cache hand-off at both ends. Works in chunks of up to
  /// kPolarChunkPairs pairs: a branch-free pass draws candidate pairs and
  /// compacts the accepted ones, then a second pass turns each into two
  /// deviates with normal_polar()'s arithmetic.
  void fill_normal_polar(double mean, double stddev, double* out,
                         std::size_t n) noexcept;

  /// Accepted pairs fill_normal_polar stages per chunk (on the stack).
  static constexpr std::size_t kPolarChunkPairs = 128;

  /// Bernoulli draw with probability p of true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Exponential deviate with rate lambda (> 0).
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Poisson deviate (Knuth for small mean, normal approx for large).
  [[nodiscard]] int poisson(double mean) noexcept;

  /// Samples an index according to non-negative weights (sum > 0).
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    if (values.size() < 2) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const std::size_t j = index(i + 1);
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Derives an independent child generator; stable in (seed, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept;

  /// The seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  double cached_polar_ = 0.0;
  bool has_cached_polar_ = false;
};

}  // namespace eco::util
