// Multi-frame sequence generation (temporal extension, paper §5.5.2:
// "Temporal modeling can enable the context to be estimated across time
// instead of for a single input, allowing clock gating for specific
// periods").
//
// A sequence is a kinematic roll-out: objects get per-class velocities and
// move across frames (bouncing at the grid border, yielding before
// collisions so instances stay separable); the weather phantom field drifts
// and churns. Each frame is rendered with the standard sensor models, so a
// sequence is a drop-in stream of Frames for the temporal gating machinery.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dataset/generator.hpp"

namespace eco::dataset {

/// Sequence generation parameters.
struct SequenceConfig {
  SensorGridSpec grid;
  std::size_t length = 16;   // frames per sequence
  std::uint64_t seed = 77;
  /// Velocity scale in cells/frame for vehicle classes (pedestrians move
  /// at ~1/4 of this).
  float vehicle_speed = 1.2f;
  /// Per-frame probability that a phantom dies / a new one is born
  /// (scaled by the scene's weather severity).
  float phantom_churn = 0.2f;
};

/// An object with kinematic state.
struct TrackedObject {
  detect::GroundTruth truth;  // box is the *rendered* (cell-aligned) pose
  float x = 0.0f;             // continuous centre position
  float y = 0.0f;
  float vx = 0.0f;            // cells/frame
  float vy = 0.0f;
  float width = 4.0f;         // continuous extents
  float height = 3.0f;
};

/// A generated sequence: per-frame rendered frames plus the underlying
/// track states (for tracking-style consumers and tests).
struct Sequence {
  SceneType scene = SceneType::kCity;
  std::vector<Frame> frames;
  std::vector<std::vector<TrackedObject>> tracks;  // per frame
};

/// Generates a deterministic sequence for one scene type.
[[nodiscard]] Sequence generate_sequence(SceneType scene,
                                         const SequenceConfig& config,
                                         std::uint64_t sequence_id);

/// The drawless snapshot of one frame: ground truths, the phantom field as
/// of that frame, and one pre-forked rng seed per sensor. With the seeds
/// captured at snapshot time, rendering needs no further state from the
/// sequence rng — so frames can be rendered in any order, on any thread,
/// bitwise identical to the sequential path.
struct FramePlan {
  std::uint64_t frame_id = 0;
  std::vector<detect::GroundTruth> objects;
  std::vector<Phantom> phantoms;
  std::array<std::uint64_t, kNumSensors> render_seeds{};
};

/// The cheap sequential half of sequence generation: kinematic track
/// advance, phantom churn, and per-(frame, sensor) seed capture. The
/// expensive half (sensor rendering, ~100x the cost) is deferred to
/// render_planned_frame.
struct SequencePlan {
  SceneType scene = SceneType::kCity;
  SceneEnvironment env;
  SensorGridSpec grid;
  std::vector<FramePlan> frames;
  std::vector<std::vector<TrackedObject>> tracks;  // per frame
};

/// Rolls out the track/phantom dynamics for one scene without rendering.
/// Draws from the sequence rng exactly as generate_sequence does, so a plan
/// rendered in order reproduces generate_sequence bit-for-bit.
[[nodiscard]] SequencePlan plan_sequence(SceneType scene,
                                         const SequenceConfig& config,
                                         std::uint64_t sequence_id);

/// Renders frame `t` of a plan. Safe to call concurrently for distinct `t`
/// on the same plan; the result does not depend on render order.
/// ECO_BACKEND=reference selects render_sensor_reference. An unknown
/// ECO_BACKEND throws here, so a caller that renders on pool workers
/// resolves tensor::default_backend() on its own thread first (FrameStream
/// does, in its constructor).
[[nodiscard]] Frame render_planned_frame(const SequencePlan& plan,
                                         std::size_t t);

/// Scratch-reusing overload for pool workers (zero steady-state allocs).
[[nodiscard]] Frame render_planned_frame(const SequencePlan& plan,
                                         std::size_t t,
                                         RenderScratch& scratch);

}  // namespace eco::dataset
