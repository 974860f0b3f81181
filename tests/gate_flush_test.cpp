// The committed Attention gate (perfbench/data/attention_gate.bin) read two
// ways: raw, by parsing the file here, and through load_params, which
// flushes every |w| < kNegligibleParam to zero. The flush must zero exactly
// the negligible weights and move no predicted loss by a single bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dataset/generator.hpp"
#include "gating/learned_gate.hpp"
#include "tensor/serialize.hpp"

#ifndef ECO_ATTENTION_GATE_BIN
#error "ECO_ATTENTION_GATE_BIN must name perfbench/data/attention_gate.bin"
#endif

namespace eco {
namespace {

struct RawParam {
  std::string name;
  tensor::Shape shape;
  std::vector<float> values;
};

// Parses the ECOW format (tensor/serialize.hpp) without load_params: magic
// "ECOW", u32 version 1, u64 count, then per parameter u64 name length,
// name, u64 ndim, ndim u64 dims and the float32 values. Empty on any error,
// including a count, length or extent beyond what a gate can hold.
std::vector<RawParam> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const auto u64 = [&in](std::uint64_t limit) {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (v > limit) in.setstate(std::ios::failbit);
    return in ? static_cast<std::size_t>(v) : 0;
  };
  char magic[4] = {};
  std::uint32_t version = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || std::string(magic, 4) != "ECOW" || version != 1) return {};
  std::vector<RawParam> params(u64(64));
  for (RawParam& p : params) {
    p.name.resize(u64(4096));
    in.read(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    p.shape.resize(u64(8));
    for (std::size_t& d : p.shape) d = u64(4096);
    if (!in) return {};
    p.values.resize(tensor::shape_numel(p.shape));
    in.read(reinterpret_cast<char*>(p.values.data()),
            static_cast<std::streamsize>(p.values.size() * sizeof(float)));
    if (!in) return {};
  }
  return params;
}

gating::LearnedGateConfig committed_gate_config(
    const core::EcoFusionEngine& engine) {
  gating::LearnedGateConfig config;
  config.in_channels = engine.stems().gate_channels();
  config.num_configs = engine.config_space().size();
  config.use_attention = true;
  return config;
}

bool negligible(float w) {
  return w != 0.0f && std::fabs(w) < tensor::kNegligibleParam;
}

class GateFlushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    raw_ = read_raw(ECO_ATTENTION_GATE_BIN);
    ASSERT_FALSE(raw_.empty()) << "cannot parse " << ECO_ATTENTION_GATE_BIN;
    ASSERT_TRUE(tensor::load_params(loaded_.parameters(),
                                    ECO_ATTENTION_GATE_BIN));
    const std::vector<tensor::Param*> params = raw_gate_.parameters();
    ASSERT_EQ(params.size(), raw_.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(params[i]->name, raw_[i].name);
      ASSERT_EQ(params[i]->value.shape(), raw_[i].shape);
      params[i]->value.vec() = raw_[i].values;
    }
  }

  const core::EcoFusionEngine engine_;
  gating::LearnedGate raw_gate_{committed_gate_config(engine_)};
  gating::LearnedGate loaded_{committed_gate_config(engine_)};
  std::vector<RawParam> raw_;
};

TEST_F(GateFlushTest, LoadZeroesExactlyTheNegligibleWeights) {
  const std::vector<tensor::Param*> loaded = loaded_.parameters();
  std::size_t total = 0, flushed = 0;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const std::vector<float>& before = raw_[i].values;
    const std::vector<float>& after = loaded[i]->value.vec();
    for (std::size_t j = 0; j < before.size(); ++j, ++total) {
      EXPECT_FALSE(negligible(after[j])) << raw_[i].name << "[" << j << "]";
      if (negligible(before[j])) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(after[j]), 0u);
        ++flushed;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(after[j]),
                  std::bit_cast<std::uint32_t>(before[j]))
            << raw_[i].name << "[" << j << "]";
      }
    }
  }
  EXPECT_EQ(total, 22359u);
  EXPECT_EQ(flushed, 1244u);
}

TEST_F(GateFlushTest, PredictedLossesBitwiseEqualOnEveryScene) {
  dataset::DatasetConfig config;
  config.frames_per_scene = 16;
  config.seed = 2022;  // the committed gate's dataset seed
  const dataset::Dataset data(config);
  ASSERT_GE(data.size(), 128u);
  std::set<dataset::SceneType> scenes;
  for (const dataset::Frame& frame : data.frames()) {
    scenes.insert(frame.scene);
    const tensor::Tensor features = engine_.gate_features(frame);
    gating::GateInput input;
    input.features = &features;
    const std::vector<float> raw = raw_gate_.predict_losses(input);
    const std::vector<float> flushed = loaded_.predict_losses(input);
    ASSERT_EQ(raw.size(), flushed.size());
    for (std::size_t c = 0; c < raw.size(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(raw[c]),
                std::bit_cast<std::uint32_t>(flushed[c]))
          << "frame " << frame.id << " config " << c << ": " << raw[c]
          << " vs " << flushed[c];
    }
  }
  EXPECT_EQ(scenes.size(), dataset::kNumSceneTypes);
}

}  // namespace
}  // namespace eco
