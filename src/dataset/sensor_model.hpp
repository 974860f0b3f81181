// Sensor observation models.
//
// The RADIATE vehicle carries a ZED stereo camera (two views), a Velodyne
// HDL-32E lidar, and a Navtech CTS350-X radar. Each model here converts a
// ground-truth scene into a single-channel observation grid whose fidelity
// depends on the driving context, reproducing the qualitative behaviour the
// paper's evaluation relies on:
//
//   * cameras: highest fidelity in clear daylight; collapse in fog/snow,
//     degraded at night and in rain (speckle, contrast loss);
//   * lidar: good geometry in all illumination; attenuated by fog/rain/snow
//     backscatter (dropouts);
//   * radar: weather-robust but coarse (blurred extent, position jitter,
//     clutter ghosts) and nearly blind to low-RCS objects (pedestrians,
//     bicycles).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dataset/scene.hpp"
#include "detect/box.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace eco::dataset {

/// Physical sensors on the vehicle. The ZED stereo camera contributes two
/// views (left/right), matching the paper's C_L / C_R configurations.
enum class SensorKind : std::uint8_t {
  kCameraLeft = 0,
  kCameraRight,
  kLidar,
  kRadar,
};

inline constexpr std::size_t kNumSensors = 4;

[[nodiscard]] const char* sensor_kind_name(SensorKind kind) noexcept;
[[nodiscard]] const char* sensor_kind_abbrev(SensorKind kind) noexcept;
[[nodiscard]] std::vector<SensorKind> all_sensor_kinds();

/// Context-dependent observation fidelity in [0,1].
/// 1.0 = clean, high-contrast observation; 0.0 = pure noise.
/// This table is the heart of the substitution dataset: it encodes "which
/// sensor works in which context" (Figure 5 of the paper emerges from it).
[[nodiscard]] float sensor_quality(SensorKind kind, SceneType scene) noexcept;

/// Per-sensor, per-context false-alarm (clutter blob) rate per frame.
[[nodiscard]] float sensor_clutter_rate(SensorKind kind, SceneType scene) noexcept;

/// Per-sensor, per-context probability that a given object produces no
/// return at all (e.g. camera in dense fog, radar on a pedestrian).
[[nodiscard]] float sensor_miss_probability(SensorKind kind, SceneType scene,
                                            detect::ObjectClass cls) noexcept;

/// Signature amplitude of an object class as seen by a sensor modality.
[[nodiscard]] float class_signature(SensorKind kind,
                                    detect::ObjectClass cls) noexcept;

/// Parameters of the observation grid.
struct SensorGridSpec {
  std::size_t height = 48;
  std::size_t width = 48;
};

/// A phantom source: a physical weather artifact (dense rain cell, fog
/// backscatter volume, snow flurry, multipath reflector) that produces
/// object-like returns. Because the artifact is physical, it is *shared*
/// across sensors — each sensor renders the same phantom with its own
/// susceptibility — so in bad weather, false positives become correlated
/// across modalities and survive late fusion's consensus check. This is the
/// mechanism that makes "which sensors to fuse" context-dependent (the
/// paper's core premise): including a weather-susceptible sensor in the
/// fusion can actively hurt.
struct Phantom {
  detect::Box box;
  float strength = 0.5f;  // relative intensity in [0,1]
};

/// Generates the frame's shared phantom field. Rate scales with
/// attenuation + precipitation; clear scenes have essentially none.
[[nodiscard]] std::vector<Phantom> generate_phantoms(
    const SceneEnvironment& env, const SensorGridSpec& spec, util::Rng& rng);

/// Probability that `kind` produces a return for a phantom in `env`.
[[nodiscard]] float phantom_susceptibility(SensorKind kind,
                                           const SceneEnvironment& env) noexcept;

/// Reusable render scratch: the dense-noise staging buffer and splat_blob's
/// hoisted per-axis falloff tables. Buffers grow to the largest grid seen
/// and are then reused, so steady-state rendering performs no scratch
/// allocations; grow events are counted process-wide (render_scratch_allocs)
/// the same way tensor_allocs audits the inference-side arena.
struct RenderScratch {
  std::vector<double> noise;
  std::vector<float> blob_row;
  std::vector<float> blob_col;

  /// Grows the buffers to cover `spec` (no-op once large enough).
  void reserve(const SensorGridSpec& spec);
};

/// The calling thread's RenderScratch; pool workers reuse it across
/// generation tasks, so after warm-up no render allocates.
[[nodiscard]] RenderScratch& render_scratch_for_current_thread();

/// Process-wide count of RenderScratch grow events (stable once warm).
[[nodiscard]] std::uint64_t render_scratch_allocs() noexcept;

/// Renders the observation of `objects` (and phantom artifacts) in `env` as
/// seen by `kind`. Deterministic in (inputs, rng state).
/// Output: (1, H, W) tensor in [0, ~1].
///
/// Dispatches to the fast row-pointer render, or to the reference per-cell
/// render when ECO_BACKEND=reference (the tensor-kernel audit mode). Both
/// paths draw from `rng` in the same order and are bitwise identical.
[[nodiscard]] tensor::Tensor render_sensor(
    SensorKind kind, const SceneEnvironment& env,
    const std::vector<detect::GroundTruth>& objects,
    const std::vector<Phantom>& phantoms, const SensorGridSpec& spec,
    util::Rng& rng);

/// Fast render: row-pointer walks, hoisted blob falloff tables, and batched
/// dense-noise fills staged through `scratch`.
[[nodiscard]] tensor::Tensor render_sensor_fast(
    SensorKind kind, const SceneEnvironment& env,
    const std::vector<detect::GroundTruth>& objects,
    const std::vector<Phantom>& phantoms, const SensorGridSpec& spec,
    util::Rng& rng, RenderScratch& scratch);

/// Reference render: the original per-cell at() loops, kept as the semantic
/// ground truth the fast path is gated against.
[[nodiscard]] tensor::Tensor render_sensor_reference(
    SensorKind kind, const SceneEnvironment& env,
    const std::vector<detect::GroundTruth>& objects,
    const std::vector<Phantom>& phantoms, const SensorGridSpec& spec,
    util::Rng& rng);

}  // namespace eco::dataset
