#include "dataset/sequence.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/backend.hpp"

namespace eco::dataset {

namespace {

/// Cell-aligned box from continuous track state.
detect::Box aligned_box(const TrackedObject& object, const SensorGridSpec& spec) {
  detect::Box box;
  const float w = std::max(2.0f, std::round(object.width));
  const float h = std::max(2.0f, std::round(object.height));
  box.x1 = std::clamp(std::round(object.x - 0.5f * w), 0.0f,
                      static_cast<float>(spec.width) - w);
  box.y1 = std::clamp(std::round(object.y - 0.5f * h), 0.0f,
                      static_cast<float>(spec.height) - h);
  box.x2 = box.x1 + w;
  box.y2 = box.y1 + h;
  return box;
}

/// Would `candidate` touch any other object's box (1-cell guard)?
bool touches_others(const detect::Box& candidate,
                    const std::vector<TrackedObject>& objects,
                    std::size_t self) {
  detect::Box guard = candidate;
  guard.x1 -= 1.0f;
  guard.y1 -= 1.0f;
  guard.x2 += 1.0f;
  guard.y2 += 1.0f;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i == self) continue;
    if (detect::intersection_area(guard, objects[i].truth.box) > 0.0f) {
      return true;
    }
  }
  return false;
}

float class_speed(detect::ObjectClass cls, float vehicle_speed) {
  switch (cls) {
    case detect::ObjectClass::kPedestrian:
    case detect::ObjectClass::kPedestrianGroup:
      return 0.25f * vehicle_speed;
    case detect::ObjectClass::kBicycle:
      return 0.5f * vehicle_speed;
    default:
      return vehicle_speed;
  }
}

}  // namespace

SequencePlan plan_sequence(SceneType scene, const SequenceConfig& config,
                           std::uint64_t sequence_id) {
  util::Rng rng(util::hash_combine(config.seed, sequence_id));
  const SceneEnvironment env = scene_environment(scene);

  SequencePlan plan;
  plan.scene = scene;
  plan.env = env;
  plan.grid = config.grid;
  plan.frames.reserve(config.length);
  plan.tracks.reserve(config.length);

  // Initial objects from the static generator; attach kinematic state.
  std::vector<detect::GroundTruth> initial =
      generate_objects(env, config.grid, rng);
  std::vector<TrackedObject> objects;
  objects.reserve(initial.size());
  for (const auto& gt : initial) {
    TrackedObject object;
    object.truth = gt;
    object.x = gt.box.cx();
    object.y = gt.box.cy();
    object.width = gt.box.width();
    object.height = gt.box.height();
    const float speed = class_speed(gt.cls, config.vehicle_speed);
    const double heading = rng.uniform(0.0, 2.0 * 3.14159265358979);
    object.vx = speed * static_cast<float>(std::cos(heading));
    object.vy = speed * static_cast<float>(std::sin(heading));
    objects.push_back(object);
  }

  // Initial phantom field; it drifts slowly and churns.
  std::vector<Phantom> phantoms = generate_phantoms(env, config.grid, rng);
  const float severity = env.attenuation + env.precipitation;

  for (std::size_t t = 0; t < config.length; ++t) {
    // Advance objects.
    const auto limit_w = static_cast<float>(config.grid.width);
    const auto limit_h = static_cast<float>(config.grid.height);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      TrackedObject& object = objects[i];
      float nx = object.x + object.vx;
      float ny = object.y + object.vy;
      // Bounce at borders.
      const float half_w = 0.5f * object.width + 1.0f;
      const float half_h = 0.5f * object.height + 1.0f;
      if (nx < half_w || nx > limit_w - half_w) {
        object.vx = -object.vx;
        nx = object.x + object.vx;
      }
      if (ny < half_h || ny > limit_h - half_h) {
        object.vy = -object.vy;
        ny = object.y + object.vy;
      }
      TrackedObject moved = object;
      moved.x = nx;
      moved.y = ny;
      const detect::Box candidate = aligned_box(moved, config.grid);
      if (touches_others(candidate, objects, i)) {
        // Yield: stay put this frame (cars brake for each other).
        continue;
      }
      object.x = nx;
      object.y = ny;
      object.truth.box = candidate;
    }

    // Churn phantoms: drift, die, and spawn with the weather.
    for (Phantom& ph : phantoms) {
      const float dx = rng.uniform_f(-0.8f, 0.8f);
      const float dy = rng.uniform_f(-0.8f, 0.8f);
      ph.box.x1 += dx;
      ph.box.x2 += dx;
      ph.box.y1 += dy;
      ph.box.y2 += dy;
      ph.box = ph.box.clipped(limit_w, limit_h);
    }
    std::erase_if(phantoms, [&](const Phantom& ph) {
      return !ph.box.valid() || rng.bernoulli(config.phantom_churn);
    });
    if (rng.bernoulli(std::min(0.9, 2.0 * config.phantom_churn * severity))) {
      const std::vector<Phantom> births =
          generate_phantoms(env, config.grid, rng);
      if (!births.empty()) phantoms.push_back(births.front());
    }

    // Snapshot the frame. Where the in-order path forked a per-sensor rng
    // here (rng.fork(kind + t) = Rng(hash_combine(next_u64(), kind + t))),
    // the plan captures the forked seed instead: the master rng advances
    // exactly as before, and rendering later reconstructs the identical
    // child generator from the seed alone.
    FramePlan fp;
    fp.frame_id = util::hash_combine(sequence_id, t);
    fp.objects.reserve(objects.size());
    for (const TrackedObject& object : objects) {
      fp.objects.push_back(object.truth);
    }
    fp.phantoms = phantoms;
    for (SensorKind kind : all_sensor_kinds()) {
      fp.render_seeds[static_cast<std::size_t>(kind)] = util::hash_combine(
          rng.next_u64(), static_cast<std::uint64_t>(kind) + t);
    }
    plan.frames.push_back(std::move(fp));
    plan.tracks.push_back(objects);
  }
  return plan;
}

Frame render_planned_frame(const SequencePlan& plan, std::size_t t,
                           RenderScratch& scratch) {
  const FramePlan& fp = plan.frames[t];
  Frame frame;
  frame.id = fp.frame_id;
  frame.scene = plan.scene;
  frame.objects = fp.objects;
  const bool reference =
      tensor::default_backend() == tensor::Backend::kReference;
  for (SensorKind kind : all_sensor_kinds()) {
    util::Rng sensor_rng(fp.render_seeds[static_cast<std::size_t>(kind)]);
    frame.sensor_grids[static_cast<std::size_t>(kind)] =
        reference ? render_sensor_reference(kind, plan.env, frame.objects,
                                            fp.phantoms, plan.grid,
                                            sensor_rng)
                  : render_sensor_fast(kind, plan.env, frame.objects,
                                       fp.phantoms, plan.grid, sensor_rng,
                                       scratch);
  }
  return frame;
}

Frame render_planned_frame(const SequencePlan& plan, std::size_t t) {
  return render_planned_frame(plan, t, render_scratch_for_current_thread());
}

Sequence generate_sequence(SceneType scene, const SequenceConfig& config,
                           std::uint64_t sequence_id) {
  SequencePlan plan = plan_sequence(scene, config, sequence_id);
  Sequence sequence;
  sequence.scene = scene;
  sequence.frames.reserve(plan.frames.size());
  for (std::size_t t = 0; t < plan.frames.size(); ++t) {
    sequence.frames.push_back(render_planned_frame(plan, t));
  }
  sequence.tracks = std::move(plan.tracks);
  return sequence;
}

}  // namespace eco::dataset
