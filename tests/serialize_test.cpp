#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "gating/learned_gate.hpp"
#include "util/rng.hpp"

namespace eco::tensor {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, RoundTripPreservesValues) {
  util::Rng rng(3);
  Linear a(4, 3, rng), b(4, 3, rng);
  std::vector<Param*> pa, pb;
  a.collect_params(pa);
  b.collect_params(pb);
  ASSERT_FALSE(pa[0]->value.allclose(pb[0]->value));  // different init

  const std::string path = temp_path("eco_serialize_roundtrip.bin");
  ASSERT_TRUE(save_params(pa, path));
  ASSERT_TRUE(load_params(pb, path));
  EXPECT_TRUE(pa[0]->value.allclose(pb[0]->value));
  EXPECT_TRUE(pa[1]->value.allclose(pb[1]->value));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchFails) {
  util::Rng rng(4);
  Linear a(4, 3, rng);
  Linear c(5, 3, rng);  // different in_features
  std::vector<Param*> pa, pc;
  a.collect_params(pa);
  c.collect_params(pc);
  const std::string path = temp_path("eco_serialize_mismatch.bin");
  ASSERT_TRUE(save_params(pa, path));
  EXPECT_FALSE(load_params(pc, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  util::Rng rng(5);
  Linear a(2, 2, rng);
  std::vector<Param*> pa;
  a.collect_params(pa);
  EXPECT_FALSE(load_params(pa, "/nonexistent/dir/weights.bin"));
}

TEST(SerializeTest, CorruptMagicFails) {
  const std::string path = temp_path("eco_serialize_corrupt.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT_A_WEIGHT_FILE", f);
    std::fclose(f);
  }
  util::Rng rng(6);
  Linear a(2, 2, rng);
  std::vector<Param*> pa;
  a.collect_params(pa);
  EXPECT_FALSE(load_params(pa, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadFlushesOnlyNegligibleValues) {
  const auto from_bits = [](std::uint32_t bits) {
    return std::bit_cast<float>(bits);
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // Back bit for bit: NaN (with payloads and either sign), ±Inf and every
  // |w| >= kNegligibleParam, exactly 1e-30 included.
  const std::vector<float> kept = {
      std::numeric_limits<float>::quiet_NaN(), from_bits(0xFFC12345u),
      from_bits(0x7F800001u), kInf, -kInf, 1e-30f, -1e-30f, 0.5f, -3.25f,
      FLT_MAX};
  // Back as +0: everything below 1e-30, normal (FLT_MIN) or subnormal
  // (FLT_TRUE_MIN), and -0.
  const std::vector<float> flushed = {FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN,
                                      -FLT_MIN,     1e-31f,        -1e-31f,
                                      9.99e-31f,    -0.0f};
  std::vector<float> values = kept;
  values.insert(values.end(), flushed.begin(), flushed.end());

  Param saved{"values", Tensor::from_vector(std::vector<float>(values)), {}};
  Param loaded{"values", Tensor({values.size()}), {}};
  const std::string path = temp_path("eco_serialize_flush.bin");
  ASSERT_TRUE(save_params({&saved}, path));
  ASSERT_TRUE(load_params({&loaded}, path));
  std::remove(path.c_str());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t expected =
        i < kept.size() ? std::bit_cast<std::uint32_t>(values[i]) : 0u;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(loaded.value[i]), expected)
        << "value " << i << " (" << values[i] << ")";
  }
}

TEST(SerializeTest, GateCheckpointRoundTrip) {
  gating::LearnedGateConfig config;
  config.in_channels = 8;
  config.in_height = 8;
  config.in_width = 8;
  config.num_configs = 5;
  gating::LearnedGate gate_a(config);
  config.seed = 999;  // different init
  gating::LearnedGate gate_b(config);

  const std::string path = temp_path("eco_gate_ckpt.bin");
  ASSERT_TRUE(save_params(gate_a.parameters(), path));
  ASSERT_TRUE(load_params(gate_b.parameters(), path));

  // Same weights -> same predictions.
  Tensor features({8, 8, 8});
  util::Rng rng(7);
  for (auto& v : features.vec()) v = rng.uniform_f(0.0f, 1.0f);
  EXPECT_TRUE(gate_a.forward(features).allclose(gate_b.forward(features)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eco::tensor
