// Self-describing run manifests.
//
// A BENCH_*.json row is only as useful as the context it was produced in:
// which commit, which compiler, which env knob, which stream/pipeline
// settings, and what the closed-loop controllers actually did per shard.
// A RunManifest packages all of that as one JSON artifact written next to
// the run's outputs, so a number in a bench row (or a span in a trace) can
// always be traced back to the exact configuration that produced it.
//
// Build provenance (git sha, compiler, build type, flags) is baked into the
// binary at compile time via definitions on obs/build_info.cpp — there is
// no runtime git dependency, and a binary copied to another machine still
// reports the commit it was built from.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace eco::obs {

/// Compile-time provenance of this binary (see CMakeLists.txt: the values
/// are injected as compile definitions on obs/build_info.cpp).
struct BuildInfo {
  std::string git_sha;     // short commit hash, "unknown" outside a checkout
  std::string compiler;    // __VERSION__ of the compiler that built the lib
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string cxx_flags;   // CMAKE_CXX_FLAGS (may be empty)
};

[[nodiscard]] const BuildInfo& build_info();

/// One shard's per-window control trajectory, as carried in the manifest.
struct ManifestShardControl {
  std::size_t shard_index = 0;
  std::vector<float> lambda_trace;    // λ_E per control window
  std::vector<float> deadline_trace;  // λ_L per control window
};

/// Everything needed to make a run's outputs self-describing. The producer
/// fills tool/params/env/report_fields; build provenance is attached
/// automatically by to_json().
struct RunManifest {
  std::string tool;  // e.g. "runtime_throughput"
  /// Environment toggles observed at run time, name -> value ("" = unset).
  std::vector<std::pair<std::string, std::string>> env;
  /// Free-form run parameters (stream seed, worker counts, window, ...).
  std::vector<std::pair<std::string, std::string>> params;
  /// Per-window λ_E/λ_L trajectories, one entry per shard.
  std::vector<ManifestShardControl> shard_control;
  /// Final report fields (deterministic aggregates and wall-clock alike;
  /// the name should make clear which is which).
  std::vector<std::pair<std::string, double>> report_fields;

  /// Records the current value of each named environment variable.
  void capture_env(const std::vector<std::string>& names);

  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; false (with stderr note) on IO failure.
  bool write_json(const std::string& path) const;
};

}  // namespace eco::obs
