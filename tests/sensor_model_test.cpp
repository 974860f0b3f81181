#include "dataset/sensor_model.hpp"

#include <gtest/gtest.h>

#include "dataset/generator.hpp"

namespace eco::dataset {
namespace {

TEST(RenderBackendTest, FastMatchesReferenceBitwise) {
  // The fast render (row-pointer walks, hoisted blob tables, batched noise
  // fills) must be bitwise identical to the reference per-cell render for
  // every sensor kind — the render half of ECO_BACKEND=reference.
  const SensorGridSpec spec;
  RenderScratch scratch;
  for (SceneType scene : {SceneType::kCity, SceneType::kFog}) {
    const SceneEnvironment env = scene_environment(scene);
    util::Rng obj_rng(13);
    const auto objects = generate_objects(env, spec, obj_rng);
    util::Rng phantom_rng(14);
    const auto phantoms = generate_phantoms(env, spec, phantom_rng);
    for (SensorKind kind : all_sensor_kinds()) {
      util::Rng fast_rng(404), ref_rng(404);
      const auto fast = render_sensor_fast(kind, env, objects, phantoms,
                                           spec, fast_rng, scratch);
      const auto ref = render_sensor_reference(kind, env, objects, phantoms,
                                               spec, ref_rng);
      EXPECT_TRUE(fast.equals(ref))
          << scene_type_name(scene) << "/" << sensor_kind_name(kind);
      // Both paths must leave the rng in the same state too, or sequential
      // callers downstream of a render would diverge between backends.
      EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
    }
  }
}

TEST(SensorQualityTest, CamerasCollapseInFogAndSnow) {
  for (SensorKind cam : {SensorKind::kCameraLeft, SensorKind::kCameraRight}) {
    EXPECT_LT(sensor_quality(cam, SceneType::kFog),
              0.5f * sensor_quality(cam, SceneType::kCity));
    EXPECT_LT(sensor_quality(cam, SceneType::kSnow),
              0.5f * sensor_quality(cam, SceneType::kCity));
  }
}

TEST(SensorQualityTest, RadarIsWeatherInvariant) {
  const float city = sensor_quality(SensorKind::kRadar, SceneType::kCity);
  for (SceneType scene : all_scene_types()) {
    EXPECT_NEAR(sensor_quality(SensorKind::kRadar, scene), city, 0.06f)
        << scene_type_name(scene);
  }
}

TEST(SensorQualityTest, LidarBeatsCamerasInFog) {
  EXPECT_GT(sensor_quality(SensorKind::kLidar, SceneType::kFog),
            sensor_quality(SensorKind::kCameraRight, SceneType::kFog));
  EXPECT_GT(sensor_quality(SensorKind::kLidar, SceneType::kSnow),
            sensor_quality(SensorKind::kCameraRight, SceneType::kSnow));
}

TEST(SensorQualityTest, RightCameraBeatsLeftEverywhere) {
  for (SceneType scene : all_scene_types()) {
    EXPECT_GE(sensor_quality(SensorKind::kCameraRight, scene),
              sensor_quality(SensorKind::kCameraLeft, scene));
  }
}

TEST(SensorQualityTest, CamerasBestInClearDaylight) {
  for (SceneType scene : {SceneType::kCity, SceneType::kJunction,
                          SceneType::kMotorway, SceneType::kRural}) {
    EXPECT_GT(sensor_quality(SensorKind::kCameraRight, scene),
              sensor_quality(SensorKind::kLidar, scene));
    EXPECT_GT(sensor_quality(SensorKind::kCameraRight, scene),
              sensor_quality(SensorKind::kRadar, scene));
  }
}

TEST(MissProbabilityTest, BoundedAndMonotoneInQuality) {
  for (SensorKind kind : all_sensor_kinds()) {
    for (SceneType scene : all_scene_types()) {
      for (detect::ObjectClass cls : detect::all_object_classes()) {
        const float m = sensor_miss_probability(kind, scene, cls);
        EXPECT_GE(m, 0.0f);
        EXPECT_LE(m, 0.95f);
      }
    }
  }
  // Camera misses more in fog than in the city, for every class.
  for (detect::ObjectClass cls : detect::all_object_classes()) {
    EXPECT_GT(sensor_miss_probability(SensorKind::kCameraRight,
                                      SceneType::kFog, cls),
              sensor_miss_probability(SensorKind::kCameraRight,
                                      SceneType::kCity, cls));
  }
}

TEST(ClassSignatureTest, ModalitySpecificChannels) {
  const detect::ObjectClass bus = detect::ObjectClass::kBus;
  EXPECT_EQ(class_signature(SensorKind::kCameraLeft, bus),
            class_priors(bus).camera_intensity);
  EXPECT_EQ(class_signature(SensorKind::kLidar, bus),
            class_priors(bus).lidar_reflectivity);
  EXPECT_EQ(class_signature(SensorKind::kRadar, bus),
            class_priors(bus).radar_rcs);
}

TEST(PhantomTest, RateScalesWithWeather) {
  const SensorGridSpec spec;
  util::Rng rng(5);
  int clear_total = 0, fog_total = 0;
  for (int i = 0; i < 200; ++i) {
    clear_total += static_cast<int>(
        generate_phantoms(scene_environment(SceneType::kMotorway), spec, rng)
            .size());
    fog_total += static_cast<int>(
        generate_phantoms(scene_environment(SceneType::kFog), spec, rng)
            .size());
  }
  EXPECT_LT(clear_total, fog_total / 4);
}

TEST(PhantomTest, BoxesInsideGrid) {
  const SensorGridSpec spec;
  util::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    for (const Phantom& ph :
         generate_phantoms(scene_environment(SceneType::kSnow), spec, rng)) {
      EXPECT_GE(ph.box.x1, 0.0f);
      EXPECT_GE(ph.box.y1, 0.0f);
      EXPECT_LE(ph.box.x2, static_cast<float>(spec.width));
      EXPECT_LE(ph.box.y2, static_cast<float>(spec.height));
      EXPECT_GT(ph.strength, 0.0f);
    }
  }
}

TEST(PhantomTest, RadarLeastSusceptible) {
  for (SceneType scene : {SceneType::kFog, SceneType::kRain, SceneType::kSnow}) {
    const SceneEnvironment env = scene_environment(scene);
    EXPECT_LT(phantom_susceptibility(SensorKind::kRadar, env),
              phantom_susceptibility(SensorKind::kCameraRight, env));
    EXPECT_LT(phantom_susceptibility(SensorKind::kRadar, env),
              phantom_susceptibility(SensorKind::kLidar, env));
  }
}

class RenderSweep : public ::testing::TestWithParam<SceneType> {};

TEST_P(RenderSweep, RenderIsDeterministicAndInRange) {
  const SceneType scene = GetParam();
  const SceneEnvironment env = scene_environment(scene);
  const SensorGridSpec spec;
  util::Rng obj_rng(11);
  const auto objects = generate_objects(env, spec, obj_rng);
  const auto phantoms = generate_phantoms(env, spec, obj_rng);
  for (SensorKind kind : all_sensor_kinds()) {
    util::Rng r1(77), r2(77);
    const auto g1 = render_sensor(kind, env, objects, phantoms, spec, r1);
    const auto g2 = render_sensor(kind, env, objects, phantoms, spec, r2);
    EXPECT_TRUE(g1.equals(g2)) << sensor_kind_name(kind);
    EXPECT_EQ(g1.shape(), (tensor::Shape{1, spec.height, spec.width}));
    EXPECT_GE(g1.min(), 0.0f);
    EXPECT_LT(g1.max(), 2.5f);
  }
}

TEST_P(RenderSweep, ObjectsRaiseSignalAboveEmptyScene) {
  const SceneType scene = GetParam();
  const SceneEnvironment env = scene_environment(scene);
  const SensorGridSpec spec;
  util::Rng obj_rng(13);
  const auto objects = generate_objects(env, spec, obj_rng);
  ASSERT_FALSE(objects.empty());
  // Object draws consume RNG state, so with/without see different noise
  // realizations; average a few seeds so weak-signal scenes (snow lidar)
  // don't hinge on one realization.
  double with_total = 0.0;
  double without_total = 0.0;
  for (std::uint64_t seed = 99; seed < 103; ++seed) {
    util::Rng r1(seed), r2(seed);
    with_total +=
        render_sensor(SensorKind::kLidar, env, objects, {}, spec, r1).sum();
    without_total +=
        render_sensor(SensorKind::kLidar, env, {}, {}, spec, r2).sum();
  }
  EXPECT_GT(with_total, without_total);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, RenderSweep,
                         ::testing::ValuesIn(all_scene_types()),
                         [](const auto& info) {
                           return scene_type_name(info.param);
                         });

}  // namespace
}  // namespace eco::dataset
