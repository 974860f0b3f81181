#include "gating/gate_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace eco::gating {
namespace {

/// A toy gating problem with a learnable rule: the best configuration is
/// determined by which half of the feature map carries more energy.
std::vector<GateExample> toy_examples(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<GateExample> examples;
  for (std::size_t i = 0; i < count; ++i) {
    GateExample example;
    example.features = tensor::Tensor({8, 16, 16});
    const bool left_heavy = rng.bernoulli(0.5);
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t y = 0; y < 16; ++y) {
        for (std::size_t x = 0; x < 16; ++x) {
          const bool left = x < 8;
          const float base = (left == left_heavy) ? 0.8f : 0.2f;
          example.features.at(c, y, x) = base + rng.uniform_f(-0.05f, 0.05f);
        }
      }
    }
    // Config 0 is best for left-heavy frames, config 2 otherwise.
    if (left_heavy) {
      example.config_losses = {0.2f, 0.9f, 1.4f, 1.0f};
    } else {
      example.config_losses = {1.4f, 0.9f, 0.2f, 1.0f};
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

LearnedGateConfig toy_gate_config() {
  LearnedGateConfig config;
  config.in_channels = 8;
  config.in_height = 16;
  config.in_width = 16;
  config.hidden_channels = 8;
  config.mlp_hidden = 16;
  config.num_configs = 4;
  return config;
}

TEST(GateTrainerTest, LossDecreasesOverEpochs) {
  LearnedGate gate(toy_gate_config());
  const auto examples = toy_examples(40, 1);
  GateTrainConfig config;
  config.epochs = 15;
  const GateTrainHistory history = train_gate(gate, examples, config);
  ASSERT_EQ(history.epoch_loss.size(), 15u);
  EXPECT_LT(history.final_loss(), history.epoch_loss.front() * 0.6f);
}

TEST(GateTrainerTest, LearnsToyRuleAboveChance) {
  LearnedGate gate(toy_gate_config());
  const auto train = toy_examples(60, 2);
  const auto test = toy_examples(30, 99);
  GateTrainConfig config;
  config.epochs = 25;
  (void)train_gate(gate, train, config);
  // 4 configs -> chance = 0.25 for argmin matching; the rule is learnable.
  EXPECT_GT(gate_selection_accuracy(gate, test), 0.8f);
}

TEST(GateTrainerTest, EmptyExamplesNoOp) {
  LearnedGate gate(toy_gate_config());
  const GateTrainHistory history = train_gate(gate, {}, {});
  EXPECT_TRUE(history.epoch_loss.empty());
  EXPECT_EQ(history.final_loss(), 0.0f);
}

TEST(GateTrainerTest, EarlyStoppingTruncatesHistory) {
  LearnedGate gate(toy_gate_config());
  const auto examples = toy_examples(20, 3);
  GateTrainConfig config;
  config.epochs = 100;
  config.early_stop_delta = 10.0f;  // any epoch counts as "no improvement"
  config.patience = 2;
  const GateTrainHistory history = train_gate(gate, examples, config);
  EXPECT_LT(history.epoch_loss.size(), 100u);
}

TEST(GateTrainerTest, RegretTargetsShiftInvariantSelection) {
  // Two gates trained with/without regret normalisation should both learn
  // the toy rule (the per-frame shift carries no selection information).
  const auto train = toy_examples(60, 4);
  const auto test = toy_examples(30, 123);
  GateTrainConfig with_regret;
  with_regret.epochs = 25;
  with_regret.regret_targets = true;
  GateTrainConfig without_regret = with_regret;
  without_regret.regret_targets = false;

  LearnedGate gate_a(toy_gate_config());
  (void)train_gate(gate_a, train, with_regret);
  LearnedGate gate_b(toy_gate_config());
  (void)train_gate(gate_b, train, without_regret);
  EXPECT_GT(gate_selection_accuracy(gate_a, test), 0.7f);
  EXPECT_GT(gate_selection_accuracy(gate_b, test), 0.7f);
}

TEST(GateTrainerTest, SelectionAccuracyBounds) {
  LearnedGate gate(toy_gate_config());
  const auto examples = toy_examples(10, 5);
  const float acc = gate_selection_accuracy(gate, examples);
  EXPECT_GE(acc, 0.0f);
  EXPECT_LE(acc, 1.0f);
  EXPECT_EQ(gate_selection_accuracy(gate, {}), 0.0f);
}

// L2-coupled Adam leaves the weights of dead units near 1e-37 instead of
// at 0 (tensor/optim.hpp); train_gate must hand back none of them.
TEST(GateTrainerTest, TrainedGateHasNoNegligibleWeights) {
  for (const bool attention : {false, true}) {
    LearnedGateConfig config = toy_gate_config();
    config.use_attention = attention;
    LearnedGate gate(config);
    (void)train_gate(gate, toy_examples(20, 8), {});  // the default 80 epochs
    std::size_t negligible = 0;
    for (const tensor::Param* p : gate.parameters()) {
      for (const float w : p->value.vec()) {
        negligible += w != 0.0f && std::fabs(w) < tensor::kNegligibleParam;
      }
    }
    EXPECT_EQ(negligible, 0u) << gate.name();
  }
}

TEST(GateTrainerTest, AttentionVariantAlsoLearns) {
  LearnedGateConfig config = toy_gate_config();
  config.use_attention = true;
  LearnedGate gate(config);
  const auto train = toy_examples(60, 6);
  GateTrainConfig tc;
  tc.epochs = 25;
  (void)train_gate(gate, train, tc);
  EXPECT_GT(gate_selection_accuracy(gate, toy_examples(30, 7)), 0.7f);
}

}  // namespace
}  // namespace eco::gating
