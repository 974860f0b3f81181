#include "dataset/sensor_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "tensor/backend.hpp"

namespace eco::dataset {

const char* sensor_kind_name(SensorKind kind) noexcept {
  switch (kind) {
    case SensorKind::kCameraLeft: return "camera_left";
    case SensorKind::kCameraRight: return "camera_right";
    case SensorKind::kLidar: return "lidar";
    case SensorKind::kRadar: return "radar";
  }
  return "?";
}

const char* sensor_kind_abbrev(SensorKind kind) noexcept {
  switch (kind) {
    case SensorKind::kCameraLeft: return "CL";
    case SensorKind::kCameraRight: return "CR";
    case SensorKind::kLidar: return "L";
    case SensorKind::kRadar: return "R";
  }
  return "?";
}

std::vector<SensorKind> all_sensor_kinds() {
  return {SensorKind::kCameraLeft, SensorKind::kCameraRight,
          SensorKind::kLidar, SensorKind::kRadar};
}

float sensor_quality(SensorKind kind, SceneType scene) noexcept {
  // Rows: scene in enum order (city, fog, junction, motorway, night, rain,
  // rural, snow). Columns chosen so that on the full test split the
  // single-sensor ranking matches the paper's Table 1
  // (C_R > C_L > Lidar > Radar) while fog/snow invert it (radar/lidar win).
  using Row = std::array<float, kNumSceneTypes>;
  static constexpr Row kCamLeft = {0.86f, 0.28f, 0.86f, 0.88f,
                                   0.52f, 0.58f, 0.86f, 0.33f};
  static constexpr Row kCamRight = {0.93f, 0.32f, 0.92f, 0.93f,
                                    0.60f, 0.66f, 0.92f, 0.37f};
  static constexpr Row kLidar = {0.66f, 0.55f, 0.66f, 0.68f,
                                 0.64f, 0.58f, 0.66f, 0.50f};
  static constexpr Row kRadar = {0.70f, 0.67f, 0.70f, 0.72f,
                                 0.70f, 0.67f, 0.70f, 0.67f};
  const auto s = static_cast<std::size_t>(scene);
  switch (kind) {
    case SensorKind::kCameraLeft: return kCamLeft[s];
    case SensorKind::kCameraRight: return kCamRight[s];
    case SensorKind::kLidar: return kLidar[s];
    case SensorKind::kRadar: return kRadar[s];
  }
  return 0.0f;
}

float sensor_clutter_rate(SensorKind kind, SceneType scene) noexcept {
  const SceneEnvironment env = scene_environment(scene);
  switch (kind) {
    case SensorKind::kCameraLeft:
    case SensorKind::kCameraRight:
      // Visual clutter rises with precipitation (droplets on lens) and
      // urban complexity; fog washes out structure rather than adding it.
      return 0.6f * env.clutter + 1.2f * env.precipitation;
    case SensorKind::kLidar:
      // Backscatter returns from rain/snow/fog particles.
      return 0.3f * env.clutter + 1.2f * env.precipitation +
             0.8f * env.attenuation;
    case SensorKind::kRadar:
      // Multipath ghosts: roughly constant, slightly worse in clutter.
      return 1.1f + 0.8f * env.clutter;
  }
  return 0.0f;
}

float sensor_miss_probability(SensorKind kind, SceneType scene,
                              detect::ObjectClass cls) noexcept {
  const float quality = sensor_quality(kind, scene);
  const float signature = class_signature(kind, cls);
  // Low quality and weak signature both push toward a total miss.
  float miss = 0.30f * (1.0f - quality) * (1.0f - 0.6f * signature);
  return std::clamp(miss, 0.0f, 0.95f);
}

float class_signature(SensorKind kind, detect::ObjectClass cls) noexcept {
  const ClassPriors& priors = class_priors(cls);
  switch (kind) {
    case SensorKind::kCameraLeft:
    case SensorKind::kCameraRight:
      return priors.camera_intensity;
    case SensorKind::kLidar:
      return priors.lidar_reflectivity;
    case SensorKind::kRadar:
      return priors.radar_rcs;
  }
  return 0.0f;
}

std::vector<Phantom> generate_phantoms(const SceneEnvironment& env,
                                       const SensorGridSpec& spec,
                                       util::Rng& rng) {
  const double rate = 3.0 * (env.attenuation + env.precipitation);
  const int count = rng.poisson(rate);
  std::vector<Phantom> phantoms;
  phantoms.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Phantom ph;
    const float w = rng.uniform_f(2.0f, 6.0f);
    const float h = rng.uniform_f(2.0f, 4.5f);
    ph.box.x1 = rng.uniform_f(0.0f, static_cast<float>(spec.width) - w);
    ph.box.y1 = rng.uniform_f(0.0f, static_cast<float>(spec.height) - h);
    ph.box.x2 = ph.box.x1 + w;
    ph.box.y2 = ph.box.y1 + h;
    ph.strength = rng.uniform_f(0.45f, 0.95f);
    phantoms.push_back(ph);
  }
  return phantoms;
}

float phantom_susceptibility(SensorKind kind,
                             const SceneEnvironment& env) noexcept {
  switch (kind) {
    case SensorKind::kCameraLeft:
    case SensorKind::kCameraRight:
      // Rain/snow streaks and fog glare read as structure to a camera.
      return std::clamp(0.20f + 0.45f * env.precipitation +
                            0.40f * env.attenuation,
                        0.0f, 0.85f);
    case SensorKind::kLidar:
      // Backscatter from dense droplet volumes.
      return std::clamp(0.15f + 0.40f * env.precipitation +
                            0.50f * env.attenuation,
                        0.0f, 0.85f);
    case SensorKind::kRadar:
      // 79 GHz penetrates weather; phantoms rarely have radar cross-section.
      return 0.10f;
  }
  return 0.0f;
}

namespace {

std::atomic<std::uint64_t> g_render_scratch_allocs{0};

}  // namespace

void RenderScratch::reserve(const SensorGridSpec& spec) {
  const std::size_t cells = spec.height * spec.width;
  if (noise.size() < cells) {
    noise.resize(cells);
    g_render_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (blob_row.size() < spec.height) {
    blob_row.resize(spec.height);
    g_render_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (blob_col.size() < spec.width) {
    blob_col.resize(spec.width);
    g_render_scratch_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

RenderScratch& render_scratch_for_current_thread() {
  static thread_local RenderScratch scratch;
  return scratch;
}

std::uint64_t render_scratch_allocs() noexcept {
  return g_render_scratch_allocs.load(std::memory_order_relaxed);
}

namespace {

// The primitives below are templated on the addressing strategy. <false> is
// the reference implementation: per-cell grid.at() loops, the semantic
// ground truth. <true> is the fast path: row-pointer walks, hoisted per-axis
// blob falloff tables, and batched noise fills staged through RenderScratch.
// Both instantiations draw from the rng in exactly the same order with
// exactly the same arithmetic, so their outputs are bitwise identical —
// sensor_model_test's RenderBackendTest.FastMatchesReferenceBitwise pins
// this, and CI replays the whole suite under ECO_BACKEND=reference.

/// Splats a filled rectangle of amplitude `value` (max-composited).
template <bool Fast>
void splat_rect(tensor::Tensor& grid, const detect::Box& box, float value) {
  const auto h = grid.size(1), w = grid.size(2);
  const auto y0 = static_cast<std::size_t>(std::max(0.0f, box.y1));
  const auto x0 = static_cast<std::size_t>(std::max(0.0f, box.x1));
  const auto y1 = static_cast<std::size_t>(
      std::clamp(box.y2, 0.0f, static_cast<float>(h)));
  const auto x1 = static_cast<std::size_t>(
      std::clamp(box.x2, 0.0f, static_cast<float>(w)));
  if constexpr (Fast) {
    float* base = grid.vec().data();
    for (std::size_t y = y0; y < y1; ++y) {
      float* row = base + y * w;
      for (std::size_t x = x0; x < x1; ++x) {
        row[x] = std::max(row[x], value);
      }
    }
  } else {
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t x = x0; x < x1; ++x) {
        grid.at(0, y, x) = std::max(grid.at(0, y, x), value);
      }
    }
  }
}

/// Splats an isotropic Gaussian blob centred at (cx, cy).
template <bool Fast>
void splat_blob(tensor::Tensor& grid, float cx, float cy, float sigma_x,
                float sigma_y, float value, RenderScratch* scratch) {
  const auto h = static_cast<std::ptrdiff_t>(grid.size(1));
  const auto w = static_cast<std::ptrdiff_t>(grid.size(2));
  const auto reach_x = static_cast<std::ptrdiff_t>(3.0f * sigma_x + 1.0f);
  const auto reach_y = static_cast<std::ptrdiff_t>(3.0f * sigma_y + 1.0f);
  const auto icx = static_cast<std::ptrdiff_t>(cx);
  const auto icy = static_cast<std::ptrdiff_t>(cy);
  const std::ptrdiff_t ylo = std::max<std::ptrdiff_t>(0, icy - reach_y);
  const std::ptrdiff_t yhi = std::min(h - 1, icy + reach_y);
  const std::ptrdiff_t xlo = std::max<std::ptrdiff_t>(0, icx - reach_x);
  const std::ptrdiff_t xhi = std::min(w - 1, icx + reach_x);
  if constexpr (Fast) {
    if (ylo > yhi || xlo > xhi) return;
    // dx depends only on the column and dy only on the row: hoist both
    // squared offsets so the inner loop is one add and one expf. The sum
    // ax + ay uses the same operands in the same order as the reference's
    // dx*dx + dy*dy (this file is compiled with -ffp-contract=off, so no
    // FMA contraction can split the two instantiations apart).
    float* ay = scratch->blob_row.data();
    float* ax = scratch->blob_col.data();
    for (std::ptrdiff_t y = ylo; y <= yhi; ++y) {
      const float dy = (static_cast<float>(y) - cy) / sigma_y;
      ay[y - ylo] = dy * dy;
    }
    for (std::ptrdiff_t x = xlo; x <= xhi; ++x) {
      const float dx = (static_cast<float>(x) - cx) / sigma_x;
      ax[x - xlo] = dx * dx;
    }
    float* base = grid.vec().data();
    for (std::ptrdiff_t y = ylo; y <= yhi; ++y) {
      float* row = base + y * w;
      const float ayv = ay[y - ylo];
      for (std::ptrdiff_t x = xlo; x <= xhi; ++x) {
        const float g = value * std::exp(-0.5f * (ax[x - xlo] + ayv));
        row[x] = std::max(row[x], g);
      }
    }
  } else {
    for (std::ptrdiff_t y = ylo; y <= yhi; ++y) {
      for (std::ptrdiff_t x = xlo; x <= xhi; ++x) {
        const float dx = (static_cast<float>(x) - cx) / sigma_x;
        const float dy = (static_cast<float>(y) - cy) / sigma_y;
        const float g = value * std::exp(-0.5f * (dx * dx + dy * dy));
        auto& cell = grid.at(0, static_cast<std::size_t>(y),
                             static_cast<std::size_t>(x));
        cell = std::max(cell, g);
      }
    }
  }
}

/// Adds i.i.d. Gaussian noise of the given sigma (clamped at 0 below).
/// Deviates come from Rng's trig-free polar sampler: drawing the six dense
/// noise fields of a 48x48 frame is ~87% of generate_frame (~85 of ~99 µs
/// on a 4-vCPU AVX2 Xeon VM, 400 frames over the seven scenes, with the
/// chunked fill_normal_polar), and a Box-Muller draw spends two thirds of
/// its time in libm's sincos.
template <bool Fast>
void add_noise(tensor::Tensor& grid, float sigma, util::Rng& rng,
               RenderScratch* scratch) {
  if (sigma <= 0.0f) return;
  if constexpr (Fast) {
    auto& vec = grid.vec();
    const std::size_t n = vec.size();
    double* noise = scratch->noise.data();
    rng.fill_normal_polar(0.0, sigma, noise, n);
    float* cells = vec.data();
    for (std::size_t i = 0; i < n; ++i) {
      const float v = cells[i] + static_cast<float>(noise[i]);
      cells[i] = v < 0.0f ? 0.0f : v;
    }
  } else {
    for (float& v : grid.vec()) {
      v += static_cast<float>(rng.normal_polar(0.0, sigma));
      if (v < 0.0f) v = 0.0f;
    }
  }
}

/// Adds salt speckle: `count` single-cell spikes (rain streaks, droplets).
/// Draw-dominated either way, so there is a single implementation.
void add_speckle(tensor::Tensor& grid, int count, float amplitude,
                 util::Rng& rng) {
  const auto h = grid.size(1), w = grid.size(2);
  for (int i = 0; i < count; ++i) {
    const std::size_t y = rng.index(h);
    const std::size_t x = rng.index(w);
    grid.at(0, y, x) = std::max(grid.at(0, y, x),
                                amplitude * rng.uniform_f(0.6f, 1.0f));
  }
}

template <bool Fast>
tensor::Tensor render_camera(SensorKind kind, const SceneEnvironment& env,
                             const std::vector<detect::GroundTruth>& objects,
                             const std::vector<Phantom>& phantoms,
                             const SensorGridSpec& spec, util::Rng& rng,
                             RenderScratch* scratch) {
  tensor::Tensor grid({1, spec.height, spec.width});
  const float quality = sensor_quality(kind, env.type);
  const SceneType scene = env.type;

  // Ambient background texture (stronger in cluttered scenes).
  add_noise<Fast>(grid, 0.02f + 0.05f * env.clutter, rng, scratch);

  for (const auto& gt : objects) {
    if (rng.bernoulli(sensor_miss_probability(kind, scene, gt.cls))) continue;
    const float signature = class_signature(kind, gt.cls);
    // The per-scene quality table already folds in attenuation and
    // illumination; contrast falls with quality but keeps a floor so
    // degradation is gradual, not a cliff.
    const float amplitude = signature * (0.45f + 0.55f * quality) *
                            (1.0f - 0.25f * gt.occlusion);
    // Left camera has a slightly offset viewpoint: small horizontal shift.
    detect::Box box = gt.box;
    if (kind == SensorKind::kCameraLeft) {
      const float shift = rng.uniform_f(-0.2f, 0.1f);
      box.x1 += shift;
      box.x2 += shift;
    }
    splat_rect<Fast>(grid, box, amplitude + rng.uniform_f(-0.02f, 0.02f));
  }

  // Shared weather phantoms: streak clusters / glare patches.
  for (const Phantom& ph : phantoms) {
    if (!rng.bernoulli(phantom_susceptibility(kind, env))) continue;
    splat_rect<Fast>(grid, ph.box,
                     0.42f * ph.strength * (0.45f + 0.55f * quality) +
                         rng.uniform_f(-0.02f, 0.02f));
  }

  // Precipitation speckle on the lens + sensor noise grows as quality drops.
  const auto h = static_cast<float>(spec.height);
  add_speckle(grid, static_cast<int>(env.precipitation * h * 1.6f),
              0.35f + 0.2f * env.precipitation, rng);
  const int clutter_blobs = rng.poisson(sensor_clutter_rate(kind, scene));
  for (int i = 0; i < clutter_blobs; ++i) {
    splat_blob<Fast>(grid,
                     rng.uniform_f(0.0f, static_cast<float>(spec.width)),
                     rng.uniform_f(0.0f, h), rng.uniform_f(0.8f, 2.0f),
                     rng.uniform_f(0.8f, 2.0f), rng.uniform_f(0.15f, 0.45f),
                     scratch);
  }
  add_noise<Fast>(grid, 0.02f + 0.10f * (1.0f - quality), rng, scratch);
  return grid;
}

template <bool Fast>
tensor::Tensor render_lidar(const SceneEnvironment& env,
                            const std::vector<detect::GroundTruth>& objects,
                            const std::vector<Phantom>& phantoms,
                            const SensorGridSpec& spec, util::Rng& rng,
                            RenderScratch* scratch) {
  tensor::Tensor grid({1, spec.height, spec.width});
  const float quality = sensor_quality(SensorKind::kLidar, env.type);

  for (const auto& gt : objects) {
    if (rng.bernoulli(
            sensor_miss_probability(SensorKind::kLidar, env.type, gt.cls))) {
      continue;
    }
    const float signature = class_signature(SensorKind::kLidar, gt.cls);
    const float amplitude = signature * (0.5f + 0.5f * quality) *
                            (1.0f - 0.2f * gt.occlusion);
    // Lidar sees geometry as a sparse point cloud: fill the box with
    // per-cell returns, dropping points as quality falls (weather
    // backscatter absorbs returns). The baseline sparsity (32 beams) caps
    // lidar's clear-weather ceiling below the cameras'.
    const float keep = 0.32f + 0.55f * quality;
    const auto y0 = static_cast<std::size_t>(std::max(0.0f, gt.box.y1));
    const auto x0 = static_cast<std::size_t>(std::max(0.0f, gt.box.x1));
    const auto y1 = static_cast<std::size_t>(std::clamp(
        gt.box.y2, 0.0f, static_cast<float>(spec.height)));
    const auto x1 = static_cast<std::size_t>(std::clamp(
        gt.box.x2, 0.0f, static_cast<float>(spec.width)));
    if constexpr (Fast) {
      float* base = grid.vec().data();
      for (std::size_t y = y0; y < y1; ++y) {
        float* row = base + y * spec.width;
        for (std::size_t x = x0; x < x1; ++x) {
          if (!rng.bernoulli(keep)) continue;
          row[x] = std::max(row[x], amplitude * rng.uniform_f(0.75f, 1.05f));
        }
      }
    } else {
      for (std::size_t y = y0; y < y1; ++y) {
        for (std::size_t x = x0; x < x1; ++x) {
          if (!rng.bernoulli(keep)) continue;
          grid.at(0, y, x) = std::max(
              grid.at(0, y, x), amplitude * rng.uniform_f(0.75f, 1.05f));
        }
      }
    }
  }

  // Shared weather phantoms: dense backscatter volumes.
  for (const Phantom& ph : phantoms) {
    if (!rng.bernoulli(phantom_susceptibility(SensorKind::kLidar, env))) {
      continue;
    }
    const float amp = 0.40f * ph.strength * (0.5f + 0.5f * quality);
    const auto py0 = static_cast<std::size_t>(std::max(0.0f, ph.box.y1));
    const auto px0 = static_cast<std::size_t>(std::max(0.0f, ph.box.x1));
    const auto py1 = static_cast<std::size_t>(std::clamp(
        ph.box.y2, 0.0f, static_cast<float>(spec.height)));
    const auto px1 = static_cast<std::size_t>(std::clamp(
        ph.box.x2, 0.0f, static_cast<float>(spec.width)));
    if constexpr (Fast) {
      float* base = grid.vec().data();
      for (std::size_t y = py0; y < py1; ++y) {
        float* row = base + y * spec.width;
        for (std::size_t x = px0; x < px1; ++x) {
          if (!rng.bernoulli(0.75)) continue;
          row[x] = std::max(row[x], amp * rng.uniform_f(0.7f, 1.1f));
        }
      }
    } else {
      for (std::size_t y = py0; y < py1; ++y) {
        for (std::size_t x = px0; x < px1; ++x) {
          if (!rng.bernoulli(0.75)) continue;
          grid.at(0, y, x) =
              std::max(grid.at(0, y, x), amp * rng.uniform_f(0.7f, 1.1f));
        }
      }
    }
  }

  // Backscatter speckle from precipitation / fog droplets.
  const auto cells = static_cast<float>(spec.height * spec.width);
  add_speckle(grid,
              static_cast<int>(cells * 0.004f *
                               (env.precipitation + env.attenuation)),
              0.4f, rng);
  const int clutter_blobs =
      rng.poisson(sensor_clutter_rate(SensorKind::kLidar, env.type));
  for (int i = 0; i < clutter_blobs; ++i) {
    splat_blob<Fast>(grid,
                     rng.uniform_f(0.0f, static_cast<float>(spec.width)),
                     rng.uniform_f(0.0f, static_cast<float>(spec.height)),
                     rng.uniform_f(0.6f, 1.5f), rng.uniform_f(0.6f, 1.5f),
                     rng.uniform_f(0.15f, 0.4f), scratch);
  }
  add_noise<Fast>(grid, 0.02f + 0.06f * (1.0f - quality), rng, scratch);
  return grid;
}

template <bool Fast>
tensor::Tensor render_radar(const SceneEnvironment& env,
                            const std::vector<detect::GroundTruth>& objects,
                            const std::vector<Phantom>& phantoms,
                            const SensorGridSpec& spec, util::Rng& rng,
                            RenderScratch* scratch) {
  tensor::Tensor grid({1, spec.height, spec.width});
  const float quality = sensor_quality(SensorKind::kRadar, env.type);

  for (const auto& gt : objects) {
    if (rng.bernoulli(
            sensor_miss_probability(SensorKind::kRadar, env.type, gt.cls))) {
      continue;
    }
    const float signature = class_signature(SensorKind::kRadar, gt.cls);
    const float amplitude = signature * (0.55f + 0.45f * quality);
    // Radar smears the object into a blob with positional jitter: poor
    // extent estimation is what caps radar mAP in clear scenes.
    const float jx = static_cast<float>(rng.normal(0.0, 0.45));
    const float jy = static_cast<float>(rng.normal(0.0, 0.45));
    splat_blob<Fast>(grid, gt.box.cx() + jx, gt.box.cy() + jy,
                     std::max(1.0f, 0.38f * gt.box.width()),
                     std::max(1.0f, 0.38f * gt.box.height()), amplitude,
                     scratch);
  }

  // Shared weather phantoms: weak multipath-like blobs (radar is largely
  // immune; susceptibility is low).
  for (const Phantom& ph : phantoms) {
    if (!rng.bernoulli(phantom_susceptibility(SensorKind::kRadar, env))) {
      continue;
    }
    splat_blob<Fast>(grid, ph.box.cx(), ph.box.cy(),
                     std::max(1.0f, 0.38f * ph.box.width()),
                     std::max(1.0f, 0.38f * ph.box.height()),
                     0.35f * ph.strength, scratch);
  }
  const int clutter_blobs =
      rng.poisson(sensor_clutter_rate(SensorKind::kRadar, env.type));
  for (int i = 0; i < clutter_blobs; ++i) {
    splat_blob<Fast>(grid,
                     rng.uniform_f(0.0f, static_cast<float>(spec.width)),
                     rng.uniform_f(0.0f, static_cast<float>(spec.height)),
                     rng.uniform_f(1.0f, 2.2f), rng.uniform_f(1.0f, 2.2f),
                     rng.uniform_f(0.15f, 0.35f), scratch);
  }
  add_noise<Fast>(grid, 0.05f, rng, scratch);
  return grid;
}

template <bool Fast>
tensor::Tensor render_dispatch(SensorKind kind, const SceneEnvironment& env,
                               const std::vector<detect::GroundTruth>& objects,
                               const std::vector<Phantom>& phantoms,
                               const SensorGridSpec& spec, util::Rng& rng,
                               RenderScratch* scratch) {
  switch (kind) {
    case SensorKind::kCameraLeft:
    case SensorKind::kCameraRight:
      return render_camera<Fast>(kind, env, objects, phantoms, spec, rng,
                                 scratch);
    case SensorKind::kLidar:
      return render_lidar<Fast>(env, objects, phantoms, spec, rng, scratch);
    case SensorKind::kRadar:
      return render_radar<Fast>(env, objects, phantoms, spec, rng, scratch);
  }
  return tensor::Tensor({1, spec.height, spec.width});
}

}  // namespace

tensor::Tensor render_sensor_fast(
    SensorKind kind, const SceneEnvironment& env,
    const std::vector<detect::GroundTruth>& objects,
    const std::vector<Phantom>& phantoms, const SensorGridSpec& spec,
    util::Rng& rng, RenderScratch& scratch) {
  scratch.reserve(spec);
  return render_dispatch<true>(kind, env, objects, phantoms, spec, rng,
                               &scratch);
}

tensor::Tensor render_sensor_reference(
    SensorKind kind, const SceneEnvironment& env,
    const std::vector<detect::GroundTruth>& objects,
    const std::vector<Phantom>& phantoms, const SensorGridSpec& spec,
    util::Rng& rng) {
  return render_dispatch<false>(kind, env, objects, phantoms, spec, rng,
                                nullptr);
}

tensor::Tensor render_sensor(SensorKind kind, const SceneEnvironment& env,
                             const std::vector<detect::GroundTruth>& objects,
                             const std::vector<Phantom>& phantoms,
                             const SensorGridSpec& spec, util::Rng& rng) {
  if (tensor::default_backend() == tensor::Backend::kReference) {
    return render_sensor_reference(kind, env, objects, phantoms, spec, rng);
  }
  return render_sensor_fast(kind, env, objects, phantoms, spec, rng,
                            render_scratch_for_current_thread());
}

}  // namespace eco::dataset
