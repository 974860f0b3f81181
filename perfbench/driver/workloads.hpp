// The benchmark's workloads, its golden-digest check and its one-off gate
// training, as called by the `ecobench` command line (main.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "runtime/pipeline.hpp"

namespace perfbench {

/// What a frame's result must reproduce bit for bit: the selected
/// configuration, its loss, modeled energy and latency, the λ_E it ran
/// with, and its detection count.
struct FrameDigest {
  std::uint32_t config = 0;
  std::uint32_t loss_bits = 0;
  std::uint64_t energy_bits = 0;
  std::uint64_t latency_bits = 0;
  std::uint32_t lambda_bits = 0;
  std::uint32_t detections = 0;

  bool operator==(const FrameDigest&) const = default;
};

[[nodiscard]] FrameDigest digest_of(const eco::runtime::FrameStats& stats);
[[nodiscard]] FrameDigest digest_of(const eco::core::RunResult& run,
                                    float lambda_energy);

/// Positions where `got` differs from `golden`; frames missing from `got`,
/// or extra in it, count as differing too.
[[nodiscard]] std::size_t count_mismatches(
    const std::vector<FrameDigest>& golden,
    const std::vector<FrameDigest>& got);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;
  std::string gate_path;  // Attention gate weights (tensor::save_params)
  std::string trace_dir;  // where traced passes are written
};

/// Runs one workload and prints its raw measurements as one JSON object
/// on stdout. Returns the process exit code.
int run_workload(const RunOptions& options);

/// Trains the Attention gate at a fixed seed and saves its weights, plus a
/// JSON record of the seed and configuration next to them.
int train_gate(const std::string& weights_path, const std::string& meta_path);

/// Checks of the benchmark's own code that need the library (the digest
/// check). Prints one line per check; returns 0 when all pass.
int selftest();

}  // namespace perfbench
