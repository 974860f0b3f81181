// Reproduces Table 1: "Energy Consumption and Performance Evaluation".
//
// Rows: four single-sensor configurations (no fusion), early fusion
// E(CL+CR+L), late fusion CL+CR+L+R, and EcoFusion (Attention gating) at
// λ_E ∈ {0, 0.01, 0.05}. Columns: mAP@0.5 (%), energy (J), latency (ms).
//
// Paper reference values: C_L 74.48% / 0.945 J / 21.57 ms ... EcoFusion
// λ=0.01 84.32% / 1.533 J / 35.14 ms. We reproduce the *shape* (ranking,
// energy ratios, real-time bound), not the absolute mAP level (the
// substrate is a synthetic-sensor simulator; see the README's "Paper
// reproductions" section).
#include <cstdio>

#include "harness.hpp"
#include "util/table.hpp"

int main() {
  using namespace eco;
  bench::Harness harness;
  const auto& baselines = harness.engine().baselines();
  const auto& test = harness.data().test_indices();

  util::Table table({"Fusion Type", "Configuration", "mAP (%)", "Energy (J)",
                     "Latency (ms)"});
  auto add = [&](const char* type, const bench::EvalSummary& s) {
    table.add_row({type, s.label, util::fmt_pct(s.map), util::fmt(s.mean_energy_j),
                   util::fmt(s.mean_latency_ms, 2)});
  };

  add("None", harness.evaluate_static(baselines.camera_left, test, "L. Camera (CL)"));
  add("None", harness.evaluate_static(baselines.camera_right, test, "R. Camera (CR)"));
  add("None", harness.evaluate_static(baselines.radar, test, "Radar (R)"));
  add("None", harness.evaluate_static(baselines.lidar, test, "Lidar (L)"));
  table.add_separator();
  add("Early", harness.evaluate_static(baselines.early, test, "CL+CR+L"));
  add("Late", harness.evaluate_static(baselines.late, test, "CL+CR+L+R"));
  table.add_separator();
  add("EcoFusion", harness.evaluate_adaptive(harness.attention_gate(), 0.0f,
                                             test, "lambda_E = 0"));
  add("EcoFusion", harness.evaluate_adaptive(harness.attention_gate(), 0.01f,
                                             test, "lambda_E = 0.01"));
  add("EcoFusion", harness.evaluate_adaptive(harness.attention_gate(), 0.05f,
                                             test, "lambda_E = 0.05"));

  std::printf("Table 1: Energy Consumption and Performance Evaluation\n");
  std::printf("(paper: Table 1 of DAC'22 EcoFusion; %zu test frames)\n\n",
              test.size());
  std::printf("%s\n", table.render().c_str());
  std::printf("Real-time bound: every configuration above must stay under "
              "100 ms per frame (ASPLOS'18 constraint cited in the paper).\n");
  return 0;
}
