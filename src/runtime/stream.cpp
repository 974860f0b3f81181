#include "runtime/stream.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"
#include "tensor/backend.hpp"
#include "util/rng.hpp"

namespace eco::runtime {

namespace {

std::vector<dataset::SceneType> effective_scenes(const StreamConfig& config) {
  if (!config.scenes.empty()) return config.scenes;
  return dataset::all_scene_types();
}

std::uint64_t stream_sequence_id(dataset::SceneType scene,
                                 std::size_t ordinal) {
  return util::hash_combine(static_cast<std::uint64_t>(scene), ordinal);
}

}  // namespace

dataset::SequenceConfig sequence_params(const StreamConfig& config,
                                        dataset::SceneType scene,
                                        std::size_t ordinal) {
  dataset::SequenceConfig params = config.sequence;
  const std::uint64_t salt = util::hash_combine(
      config.seed, util::hash_combine(static_cast<std::uint64_t>(scene),
                                      static_cast<std::uint64_t>(ordinal)));
  params.seed = salt;
  if (config.vary_severity) {
    util::Rng rng(salt);
    params.vehicle_speed *= rng.uniform_f(0.6f, 1.6f);
    params.phantom_churn *= rng.uniform_f(0.5f, 2.0f);
  }
  return params;
}

std::size_t shard_of(std::uint64_t sequence_id,
                     std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // splitmix64 finalizer: sequence ids are already hashes, but remix so the
  // modulo sees avalanche bits rather than hash_combine structure.
  std::uint64_t z = sequence_id + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % shard_count);
}

FrameStream::FrameStream(StreamConfig config) : config_(std::move(config)) {
  // Generation tasks pick their render path from default_backend(); resolve
  // it now so a bad ECO_BACKEND surfaces to the caller, not as
  // std::terminate on a pool worker.
  (void)tensor::default_backend();
  const std::vector<dataset::SceneType> scenes = effective_scenes(config_);
  const std::size_t shard_count =
      std::max<std::size_t>(1, config_.shard_count);
  const std::size_t shard_index = config_.shard_index % shard_count;
  const std::size_t lanes = scenes.size();
  const std::size_t length = config_.sequence.length;

  // The schedule the producer thread used to walk at runtime, precomputed:
  // lanes (one per scene) are drained round-robin one frame per round, so
  // round r delivers frame r % length of each lane's sequence r / length,
  // and the slot of (round r, lane l) has global index r * lanes + l.
  // Every sequence — owned by this shard or not — occupies exactly `length`
  // rounds, so sequences owned by other shards advance the global index
  // without being generated and total work is shard-count independent.
  //
  // Units (owned sequences) are listed in first-delivery order; slots_ is
  // the exact delivery schedule next() walks.
  std::vector<std::uint32_t> unit_of(lanes * config_.sequences_per_scene,
                                     UINT32_MAX);
  for (std::size_t ordinal = 0; ordinal < config_.sequences_per_scene;
       ++ordinal) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t id = stream_sequence_id(scenes[l], ordinal);
      if (shard_of(id, shard_count) != shard_index) continue;
      unit_of[l * config_.sequences_per_scene + ordinal] =
          static_cast<std::uint32_t>(units_.size());
      Unit unit;
      unit.scene = scenes[l];
      unit.ordinal = ordinal;
      unit.sequence_id = id;
      units_.push_back(std::move(unit));
    }
  }
  total_ = units_.size() * length;
  slots_.reserve(total_);
  const std::size_t rounds = config_.sequences_per_scene * length;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t ordinal = length == 0 ? 0 : r / length;
    const std::size_t t = length == 0 ? 0 : r % length;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint32_t u =
          unit_of[l * config_.sequences_per_scene + ordinal];
      if (u == UINT32_MAX) continue;
      slots_.push_back(Slot{u, static_cast<std::uint32_t>(t), r * lanes + l});
    }
  }
}

FrameStream::~FrameStream() {
  // In-flight generation tasks capture `this`; wait them out. Tasks never
  // block (pure synthesis), so this terminates regardless of how much of
  // the stream was consumed.
  group_.wait();
}

void FrameStream::attach_pool(ThreadPool& pool, bool trace) {
  if (config_.prefetch == 0) return;  // inline mode: nothing to submit
  std::unique_lock<std::mutex> lock(mutex_);
  if (pool_ != nullptr || cursor_ != 0) return;
  pool_ = &pool;
  trace_ = trace;
  const std::size_t window = std::min(config_.prefetch, units_.size());
  while (next_submit_ < window) {
    submit_unit(pool, next_submit_++);
  }
}

void FrameStream::submit_unit(ThreadPool& pool, std::size_t u) {
  // Called with mutex_ held. The capture is 16 bytes — well inside
  // SmallTask's inline buffer, so submission costs no allocation; from the
  // driver thread it goes through the shared injector ring.
  units_[u].state = UnitState::kGenerating;
  pool.submit(group_, [this, u](std::size_t) { generate_unit(u); });
}

void FrameStream::generate_unit(std::size_t u) {
  Unit& unit = units_[u];
  // scene/ordinal/sequence_id are immutable after construction; only
  // state/frames/consumed need the lock. Pool tasks run outside any
  // pipeline ShardScope, so open one here when tracing was requested;
  // inline calls (consumer thread) already carry the caller's scope and
  // trace_=false keeps this a no-op there.
  obs::ShardScope scope(config_.shard_index, trace_);
  obs::Span span(obs::Stage::kIngestGenerate);
  span.arg(static_cast<double>(unit.sequence_id));
  dataset::SequencePlan plan = dataset::plan_sequence(
      unit.scene, sequence_params(config_, unit.scene, unit.ordinal),
      unit.ordinal);
  std::vector<dataset::Frame> frames;
  frames.reserve(plan.frames.size());
  dataset::RenderScratch& scratch =
      dataset::render_scratch_for_current_thread();
  for (std::size_t t = 0; t < plan.frames.size(); ++t) {
    frames.push_back(dataset::render_planned_frame(plan, t, scratch));
  }
  span.arg(static_cast<double>(frames.size()));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unit.frames = std::move(frames);
    unit.state = UnitState::kReady;
  }
  ready_cv_.notify_all();
}

std::optional<StreamFrame> FrameStream::next() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (cursor_ >= slots_.size()) return std::nullopt;
  const Slot slot = slots_[cursor_++];
  Unit& unit = units_[slot.unit];

  if (unit.state == UnitState::kEmpty) {
    // Not in the lookahead window (prefetch 0, no pool attached, or a
    // depth smaller than the number of interleaved lanes): synthesize on
    // the consumer thread. Deterministically the same frames either way.
    unit.state = UnitState::kGenerating;
    lock.unlock();
    generate_unit(slot.unit);
    lock.lock();
  }
  if (unit.state != UnitState::kReady) {
    // Starved: the generation task has not finished yet. Counted like
    // sched_queue_wait_ns — observability only.
    blocked_pops_.fetch_add(1, std::memory_order_relaxed);
    obs::Span span(obs::Stage::kIngestWait);
    span.arg(static_cast<double>(slot.global_index));
    const auto wait_start = std::chrono::steady_clock::now();
    ready_cv_.wait(lock, [&] { return unit.state == UnitState::kReady; });
    const auto wait_end = std::chrono::steady_clock::now();
    blocked_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait_end -
                                                                 wait_start)
                .count()),
        std::memory_order_relaxed);
  }

  StreamFrame out;
  out.index = slot.global_index;
  out.sequence_id = unit.sequence_id;
  out.scene = unit.scene;
  out.frame = std::move(unit.frames[slot.t]);
  if (++unit.consumed == config_.sequence.length) {
    // Fully consumed: release the buffer and slide the lookahead window.
    unit.frames.clear();
    unit.frames.shrink_to_fit();
    if (pool_ != nullptr && next_submit_ < units_.size()) {
      submit_unit(*pool_, next_submit_++);
    }
  }
  return out;
}

}  // namespace eco::runtime
