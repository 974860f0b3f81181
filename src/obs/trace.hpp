// Structured span tracing for the sharded streaming runtime.
//
// The runtime's closed loops act on *measured* signals, but until this layer
// the only visibility into a run was end-of-run aggregates — nobody could
// see where a frame's 0.6 ms went or why a shard stalled. The tracer records
// begin/end spans for every pipeline stage (stream pull, per-frame select,
// stem compute, channel scan, NMS/merge, per-frame finish,
// control-window update, shard merge) into *per-thread ring buffers* and
// exports them as Chrome trace_event JSON, viewable in Perfetto
// (ui.perfetto.dev) with one process lane per engine shard and one thread
// lane per worker.
//
// Design constraints, in priority order:
//
//   1. *Provably off the deterministic path.* Spans only ever observe; they
//      never feed back into selection, control, or accounting. The runtime's
//      merged reports are bitwise identical with tracing on or off
//      (tests/obs_test.cpp pins this across shard × worker counts).
//   2. *Free when disabled.* Every instrumentation site guards on a
//      thread-local sink pointer being non-null; with tracing off (no
//      ShardScope active, or no Tracer installed) a span site costs one
//      thread-local load and one predicted-not-taken branch — no clock
//      reads, no stores.
//   3. *Lock-free when enabled.* Each thread appends to its own
//      preallocated SpanRing (single writer, drained only after the run
//      quiesces); a full ring drops new spans and counts the drops instead
//      of blocking or corrupting earlier records.
//
// Usage: install a Tracer (the bench does this for one traced run), set
// PipelineConfig::tracing, run. Worker tasks activate their lane with a
// ShardScope; exec-layer code emits spans unconditionally and inherits the
// scope of whatever task is running it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace eco::obs {

/// Instrumented pipeline stages. One span name/category/arg-schema per
/// stage (stage_info); sites pass args positionally against that schema.
enum class Stage : std::uint8_t {
  kStreamPull = 0,   // window fill from the frame stream
  kSelect,           // a frame's workspace + Algorithm 1 steps 1-4
  kStemCompute,      // stem features computed (no cache / cache miss)
  // Benchmark-only: only a workspace with perfbench's TemporalStemCache
  // emits it; a [benchmark] change retires it with the cache.
  kStemCacheHit,     // stem features resolved from the temporal cache
  kChannelScan,      // one unique channel scan of one frame
  kNmsMerge,         // per-configuration fusion + NMS + scoring
  kFinishFrame,      // a frame's run_selected (scan/fuse/loss) + accounting
  kWindowUpdate,     // control-window reduction + λ updates
  kShardMerge,       // sharded-report merge + finalize
  kSchedulerIdle,    // a pool worker waiting for work (starvation gap)
  kIngestGenerate,   // one sequence synthesized (pool task or inline)
  kIngestWait,       // a consumer pop blocked on an unrendered frame
  kNumStages,
};

inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::kNumStages);

/// Shard label for spans outside any shard (the sharded merge, run-level
/// work). Exported as its own "run" process lane.
inline constexpr std::uint16_t kRunShard = 0xFFFF;

/// Static per-stage metadata: span name, trace category, and the names of
/// the (up to 4) positional numeric args a site may attach.
struct StageInfo {
  const char* name;
  const char* category;
  std::array<const char*, 4> args;  // nullptr-terminated by convention
};

[[nodiscard]] const StageInfo& stage_info(Stage stage) noexcept;

/// One completed span. Fixed-size POD so a ring slot never allocates.
struct SpanRecord {
  std::int64_t start_ns = 0;  // since the tracer's epoch (steady clock)
  std::int64_t dur_ns = 0;
  std::array<double, 4> args{};
  Stage stage = Stage::kStreamPull;
  std::uint8_t num_args = 0;
  std::uint16_t shard = kRunShard;
};

/// Fixed-capacity single-writer span buffer for one thread. The writer
/// appends on the hot path with no synchronisation; the tracer drains it
/// only after the traced run has quiesced (joined). When full, new spans
/// are dropped and counted — earlier records are never overwritten, so a
/// wrapped ring still exports a valid (truncated) trace.
class SpanRing {
 public:
  SpanRing(std::size_t capacity, std::uint32_t lane,
           std::chrono::steady_clock::time_point epoch)
      : lane_(lane), epoch_(epoch) {
    records_.resize(capacity);
  }

  /// Slot for the next record, or nullptr when the ring is full (the drop
  /// is counted). The caller fills the slot in place.
  [[nodiscard]] SpanRecord* next_slot() noexcept {
    if (size_ == records_.size()) {
      ++dropped_;
      return nullptr;
    }
    return &records_[size_++];
  }

  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const SpanRecord& record(std::size_t i) const noexcept {
    return records_[i];
  }

 private:
  std::vector<SpanRecord> records_;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t lane_;
  std::chrono::steady_clock::time_point epoch_;
};

struct TraceConfig {
  /// Span slots per thread lane. Defaults comfortably above a bench run's
  /// span volume; shrink it to exercise the drop path.
  std::size_t ring_capacity = 1u << 16;
};

/// Aggregate tracer statistics (post-run observability and self-gates).
struct TraceStats {
  std::uint64_t total_spans = 0;
  std::uint64_t dropped_spans = 0;
  std::array<std::uint64_t, kNumStages> per_stage{};
  /// Distinct shard lanes seen (kRunShard counts as one).
  std::size_t shard_lanes = 0;
};

/// Owns the per-thread rings and exports the trace. Install one tracer for
/// the duration of a traced run; uninstall (or destroy) it only after every
/// traced thread has finished emitting.
class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer the process-global span sink. Only one tracer may be
  /// installed at a time (throws std::logic_error otherwise).
  void install();
  void uninstall() noexcept;

  /// The calling thread's ring, created and lane-numbered on first use.
  [[nodiscard]] SpanRing* ring_for_current_thread();

  [[nodiscard]] TraceStats stats() const;

  /// The full trace as Chrome trace_event JSON ("traceEvents" array of
  /// "ph":"X" complete events plus process/thread metadata; ts/dur in µs).
  [[nodiscard]] std::string trace_json() const;

  /// Writes trace_json() to `path`; false (with stderr note) on IO failure.
  bool write_json(const std::string& path) const;

 private:
  TraceConfig config_;
  /// Process-unique identity (never 0, never reused) keying the per-thread
  /// ring caches — see ThreadRingCache in trace.cpp.
  std::uint64_t generation_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  bool installed_ = false;
};

/// The installed tracer, or nullptr. Relaxed atomic — readers only need to
/// see a tracer that was installed before their run started.
[[nodiscard]] Tracer* installed_tracer() noexcept;

namespace detail {
/// Thread-local emission state. `sink` is non-null only while a ShardScope
/// is active AND a tracer is installed — so every span site reduces to one
/// thread-local load + branch when tracing is off in any way.
struct Lane {
  SpanRing* sink = nullptr;
  std::uint16_t shard = kRunShard;
};
inline thread_local Lane tls_lane;
}  // namespace detail

/// Activates span emission on the current thread for the scope's lifetime,
/// labelling spans with `shard`. Pass active=false (e.g. when the pipeline's
/// tracing toggle is off) for a guaranteed no-op. Scopes nest; the previous
/// lane state is restored on destruction.
class ShardScope {
 public:
  ShardScope(std::size_t shard, bool active) noexcept : saved_(detail::tls_lane) {
    if (!active) return;
    Tracer* tracer = installed_tracer();
    if (tracer == nullptr) return;
    detail::tls_lane.sink = tracer->ring_for_current_thread();
    detail::tls_lane.shard = static_cast<std::uint16_t>(shard);
  }
  ~ShardScope() { detail::tls_lane = saved_; }

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  detail::Lane saved_;
};

/// RAII span: records [construction, destruction) of the current thread's
/// lane. All methods are no-ops when no lane is active.
class Span {
 public:
  explicit Span(Stage stage) noexcept
      : sink_(detail::tls_lane.sink), stage_(stage) {
    if (sink_ == nullptr) return;
    shard_ = detail::tls_lane.shard;
    start_ = std::chrono::steady_clock::now();
  }

  ~Span() {
    if (sink_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    SpanRecord* slot = sink_->next_slot();
    if (slot == nullptr) return;  // ring full: span dropped, counted
    slot->start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start_ - sink_->epoch())
                         .count();
    slot->dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    slot->stage = stage_;
    slot->shard = shard_;
    slot->num_args = num_args_;
    slot->args = args_;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches the next positional arg (schema: stage_info(stage).args).
  void arg(double value) noexcept {
    if (sink_ == nullptr || num_args_ >= args_.size()) return;
    args_[num_args_++] = value;
  }

  /// Re-labels the span before it is emitted — for sites that only learn
  /// the precise stage mid-flight (stem compute vs cache hit).
  void restage(Stage stage) noexcept { stage_ = stage; }

 private:
  SpanRing* sink_;
  Stage stage_;
  std::uint16_t shard_ = kRunShard;
  std::uint8_t num_args_ = 0;
  std::array<double, 4> args_{};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eco::obs
