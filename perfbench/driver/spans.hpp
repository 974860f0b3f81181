// The benchmark's own span recorder.
//
// Spans are recorded by benchmark code around each call it makes into a
// layer's public function (FrameWorkspace::gate_features, Gate::
// predict_losses, select_adaptive, ...). Nothing here reaches into the
// library: the library's own obs::Stage spans are folded separately, from
// the tracer's export. Each record carries a span id, its parent span (the
// innermost open span of the same thread, 0 at top level), a frame id and a
// lane. On traced stream passes the lane is the thread's obs tracer lane
// and timestamps share the tracer's epoch, so both kinds of span nest into
// one per-thread timeline.
//
// A SpanLog is active for one pass at a time. Each thread appends to its
// own buffer without locks; buffers are read only after the pass's threads
// have been joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kDataset,
  kExec,
  kStems,
  kGating,
  kJointOpt,
  kDetectScan,
  kDetectMerge,
  kFusion,
};

/// Ledger bucket name of a layer ("detect.scan", "joint_opt", ...).
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t frame = 0;
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t dur_ns = 0;
  std::uint32_t lane = 0;
  Layer layer = Layer::kExec;
};

class SpanLog {
 public:
  /// `lane_of_thread`, when set, names the lane of the calling thread
  /// (called once per thread, on its first span).
  using LaneFn = std::uint32_t (*)();

  SpanLog(std::chrono::steady_clock::time_point epoch, LaneFn lane_of_thread);
  ~SpanLog();

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Makes this log the process-wide sink (one at a time).
  void activate();
  void deactivate() noexcept;

  /// Every record of every thread. Call only after the threads quiesced.
  [[nodiscard]] std::vector<SpanRecord> records() const;

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

 private:
  friend class ScopedSpan;
  struct Buffer {
    std::uint64_t index = 0;
    std::uint32_t lane = 0;
    std::uint64_t next_id = 0;
    std::vector<SpanRecord> records;
  };
  Buffer* buffer_for_current_thread();

  std::chrono::steady_clock::time_point epoch_;
  LaneFn lane_of_thread_;
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  bool active_ = false;
};

/// Frame id stamped on spans opened by this thread from now on.
void set_current_frame(std::uint64_t frame) noexcept;

/// RAII span; a no-op when no SpanLog is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;
  SpanLog::Buffer* buffer_ = nullptr;
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace perfbench
