// Frame sources for the streaming runtime.
//
// A FrameStream multiplexes many generated dataset::Sequence roll-outs into
// one ordered stream of frames, the way an on-vehicle pipeline sees them:
// scene contexts interleave (one "lane" per scene type, round-robin), and
// each sequence gets its own seed and severity jitter so no two sequences
// are identical.
//
// Since PR 10 the stream has no dedicated producer thread. The delivery
// schedule (which frame occupies which global index) is precomputed at
// construction; frame synthesis runs as sequence-granular tasks on the
// shared ThreadPool attached via attach_pool(), bounded by a lookahead
// window of `prefetch` sequences (StreamConfig::prefetch, default 8; 0 =
// generate inline on the consumer thread, with no extra thread).
// next() stitches the generated sequences back together in exact global
// order, so the *content and order* of the stream is a pure function of
// StreamConfig — it does not depend on the prefetch depth, pool size,
// consumer count, or timing — which is what lets the pipeline guarantee
// deterministic aggregate results (see pipeline.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "dataset/sequence.hpp"
#include "runtime/thread_pool.hpp"

namespace eco::runtime {

/// Stream composition parameters.
struct StreamConfig {
  /// Base sequence parameters (grid, length, speeds). Per-sequence seeds
  /// and severity jitter are derived from `seed`, not from sequence.seed.
  dataset::SequenceConfig sequence;
  /// Scene lanes to interleave. Empty = all 8 scene types.
  std::vector<dataset::SceneType> scenes;
  std::size_t sequences_per_scene = 2;
  std::uint64_t seed = 7102;
  /// Jitter vehicle speed / phantom churn per sequence (mixed severities).
  bool vary_severity = true;
  /// Deterministic sequence-level sharding. With shard_count > 1 this
  /// stream delivers only the sequences shard_of() assigns to shard_index —
  /// but every frame carries its *global* stream index, i.e. its position
  /// in the unsharded stream. The N per-shard streams of one StreamConfig
  /// therefore partition the 1-shard stream exactly: same frames, same
  /// relative order, each frame delivered by exactly one shard. Sequences
  /// owned by other shards are skipped without being generated, so total
  /// generation work is independent of the shard count.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  /// Lookahead window: at most this many sequences generated-but-not-fully-
  /// consumed ahead of the consumers when a pool is attached (backpressure
  /// and the memory bound). 0 disables pooled generation entirely: frames
  /// are synthesized inline on the consumer thread. Any depth produces the
  /// identical stream.
  std::size_t prefetch = 8;
};

/// One frame of the multiplexed stream.
struct StreamFrame {
  std::size_t index = 0;        // global position in the stream
  std::uint64_t sequence_id = 0;
  dataset::SceneType scene = dataset::SceneType::kCity;
  dataset::Frame frame;
};

/// A live frame stream. Thread-safe: any number of consumers may call
/// next() concurrently; each frame is delivered once, in global order.
/// Generation runs on the attached shared pool (or inline when detached or
/// prefetch == 0); there is no dedicated producer thread.
class FrameStream {
 public:
  /// Resolves the process-wide kernel backend before anything else, so an
  /// unknown ECO_BACKEND throws std::invalid_argument here, on the caller's
  /// thread, rather than inside a pooled generation task.
  explicit FrameStream(StreamConfig config);
  ~FrameStream();

  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  /// Total frames the stream will deliver (known up front).
  [[nodiscard]] std::size_t total_frames() const noexcept { return total_; }

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  /// Attaches the shared pool and (when prefetch > 0) submits the first
  /// lookahead window of sequence-generation tasks through the injector
  /// ring. Call before the first next(); calling after consumption started
  /// or attaching twice is a no-op. The stream must outlive the pool's use
  /// of it (the destructor waits for in-flight generation tasks).
  /// `trace` activates span emission inside pooled generation tasks (they
  /// run outside any pipeline ShardScope), labelled with the stream's
  /// shard index.
  void attach_pool(ThreadPool& pool, bool trace = false);

  /// Next frame in stream order; empty when exhausted.
  [[nodiscard]] std::optional<StreamFrame> next();

  /// The lookahead depth in force (config.prefetch; 0 = inline).
  [[nodiscard]] std::size_t prefetch_depth() const noexcept {
    return config_.prefetch;
  }

  /// Ingest starvation: next() calls that blocked waiting for a generation
  /// task, and the summed blocked nanoseconds. Observability only — like
  /// sched_queue_wait_ns, excluded from the determinism contract.
  [[nodiscard]] std::uint64_t blocked_pops() const noexcept {
    return blocked_pops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocked_ns() const noexcept {
    return blocked_ns_.load(std::memory_order_relaxed);
  }

 private:
  enum class UnitState : std::uint8_t { kEmpty, kGenerating, kReady };

  /// One owned sequence: the unit of generation work.
  struct Unit {
    dataset::SceneType scene = dataset::SceneType::kCity;
    std::size_t ordinal = 0;        // per-scene sequence ordinal
    std::uint64_t sequence_id = 0;  // stream id (hash of scene, ordinal)
    UnitState state = UnitState::kEmpty;  // guarded by mutex_
    std::size_t consumed = 0;             // frames handed out; guarded
    std::vector<dataset::Frame> frames;   // filled by generate_unit
  };

  /// One delivered slot of the global schedule, in delivery order.
  struct Slot {
    std::uint32_t unit = 0;
    std::uint32_t t = 0;
    std::size_t global_index = 0;
  };

  void generate_unit(std::size_t u);
  void submit_unit(ThreadPool& pool, std::size_t u);

  StreamConfig config_;
  std::size_t total_ = 0;
  std::vector<Unit> units_;   // in first-delivery order
  std::vector<Slot> slots_;   // owned slots, global-index order
  std::size_t cursor_ = 0;      // next slot to deliver; guarded by mutex_
  std::size_t next_submit_ = 0; // next unit to enqueue; guarded by mutex_
  ThreadPool* pool_ = nullptr;  // set once by attach_pool
  bool trace_ = false;          // span emission in pooled generation tasks
  TaskGroup group_;
  std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::atomic<std::uint64_t> blocked_pops_{0};
  std::atomic<std::uint64_t> blocked_ns_{0};
};

/// The sequence parameters lane `scene` uses for its `ordinal`-th sequence:
/// a derived seed plus (optionally) severity jitter. Exposed so tests can
/// reproduce individual sequences of a stream.
[[nodiscard]] dataset::SequenceConfig sequence_params(
    const StreamConfig& config, dataset::SceneType scene, std::size_t ordinal);

/// The shard that owns `sequence_id` in an N-way partition. A pure hash:
/// stable across runs, machines, and shard/worker topology — which is what
/// keeps shard routing (and everything derived from it, e.g. temporal stem
/// cache hit patterns) deterministic.
[[nodiscard]] std::size_t shard_of(std::uint64_t sequence_id,
                                   std::size_t shard_count) noexcept;

}  // namespace eco::runtime
