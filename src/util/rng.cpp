#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace eco::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::uint64_t value) noexcept {
  std::uint64_t state = value;
  return splitmix64(state);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return hash64(a ^ (0x9E3779B97F4A7C15ull + (b << 6) + (b >> 2) + hash64(b)));
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 uniform mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

float Rng::uniform_f(float lo, float hi) noexcept {
  return static_cast<float>(uniform(lo, hi));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire-style rejection-free-enough bounded draw (modulo bias negligible
  // for simulation spans << 2^64, but we use multiply-shift anyway).
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next_u64()) * span;
  return lo + static_cast<std::int64_t>(m >> 64);
}

std::size_t Rng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  double sin_a = 0.0, cos_a = 0.0;
#if defined(__GLIBC__)
  // One combined argument reduction for both deviates; glibc's sincos
  // returns exactly sin(angle) and cos(angle), so the stream is unchanged.
  ::sincos(angle, &sin_a, &cos_a);
#else
  sin_a = std::sin(angle);
  cos_a = std::cos(angle);
#endif
  cached_normal_ = radius * sin_a;
  has_cached_normal_ = true;
  return radius * cos_a;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::normal_polar() noexcept {
  if (has_cached_polar_) {
    has_cached_polar_ = false;
    return cached_polar_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s <= 0.0);
  const double mult = std::sqrt(-2.0 * std::log(s) / s);
  cached_polar_ = v * mult;
  has_cached_polar_ = true;
  return u * mult;
}

double Rng::normal_polar(double mean, double stddev) noexcept {
  return mean + stddev * normal_polar();
}

void Rng::fill_normal_polar(double mean, double stddev, double* out,
                            std::size_t n) noexcept {
  std::size_t i = 0;
  if (i < n && has_cached_polar_) {
    has_cached_polar_ = false;
    out[i++] = mean + stddev * cached_polar_;
  }
  double us[kPolarChunkPairs] = {}, vs[kPolarChunkPairs] = {},
         ss[kPolarChunkPairs] = {};
  while (i + 1 < n) {
    const std::size_t pairs = std::min((n - i) / 2, kPolarChunkPairs);
    // Phase 1: candidate pairs in generator order. Every candidate is
    // written to slot k and the slot advances only on acceptance, so the
    // ~21% rejections cost no mispredicted branch; the draws are exactly
    // normal_polar()'s do-while sequence.
    std::size_t k = 0;
    while (k < pairs) {
      const double u = 2.0 * uniform() - 1.0;
      const double v = 2.0 * uniform() - 1.0;
      const double s = u * u + v * v;
      us[k] = u;
      vs[k] = v;
      ss[k] = s;
      k += static_cast<std::size_t>(!(s >= 1.0) & !(s <= 0.0));
    }
    // Phase 2: normal_polar()'s per-pair arithmetic, in acceptance order.
    for (k = 0; k < pairs; ++k) {
      const double mult = std::sqrt(-2.0 * std::log(ss[k]) / ss[k]);
      out[i++] = mean + stddev * (us[k] * mult);
      out[i++] = mean + stddev * (vs[k] * mult);
    }
  }
  if (i < n) out[i] = mean + stddev * normal_polar();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential(double lambda) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

int Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 30.0) {
    // Normal approximation with continuity correction.
    const double v = normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  int k = 0;
  double product = uniform();
  while (product > limit) {
    ++k;
    product *= uniform();
  }
  return k;
}

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double cut = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (cut < w) return i;
    cut -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  return Rng(hash_combine(next_u64(), salt));
}

}  // namespace eco::util
