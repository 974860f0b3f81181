#include "spans.hpp"

#include <atomic>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<SpanLog*> g_active{nullptr};
std::atomic<std::uint64_t> g_generation{0};

// Per-thread emission state. `generation` keys the cached buffer to one
// log, so a later log never writes into a destroyed log's buffer.
struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  std::uint64_t open_span = 0;
  std::uint64_t frame = 0;
};
thread_local ThreadState tls;

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kDataset: return "dataset";
    case Layer::kExec: return "exec";
    case Layer::kStems: return "stems";
    case Layer::kGating: return "gating";
    case Layer::kJointOpt: return "joint_opt";
    case Layer::kDetectScan: return "detect.scan";
    case Layer::kDetectMerge: return "detect.merge";
    case Layer::kFusion: return "fusion";
  }
  return "unknown";
}

SpanLog::SpanLog(std::chrono::steady_clock::time_point epoch,
                 LaneFn lane_of_thread)
    : epoch_(epoch),
      lane_of_thread_(lane_of_thread),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

SpanLog::~SpanLog() { deactivate(); }

void SpanLog::activate() {
  SpanLog* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this)) {
    throw std::logic_error("SpanLog: another log is active");
  }
  active_ = true;
}

void SpanLog::deactivate() noexcept {
  if (!active_) return;
  SpanLog* expected = this;
  g_active.compare_exchange_strong(expected, nullptr);
  active_ = false;
}

SpanLog::Buffer* SpanLog::buffer_for_current_thread() {
  if (tls.generation == generation_) return static_cast<Buffer*>(tls.buffer);
  auto buffer = std::make_unique<Buffer>();
  buffer->lane = lane_of_thread_ != nullptr ? lane_of_thread_() : 0;
  buffer->records.reserve(1u << 14);
  std::lock_guard<std::mutex> lock(mutex_);
  buffer->index = buffers_.size();
  buffers_.push_back(std::move(buffer));
  tls = {generation_, buffers_.back().get(), 0, tls.frame};
  return buffers_.back().get();
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

void set_current_frame(std::uint64_t frame) noexcept { tls.frame = frame; }

ScopedSpan::ScopedSpan(Layer layer)
    : log_(g_active.load(std::memory_order_relaxed)) {
  if (log_ == nullptr) return;
  buffer_ = log_->buffer_for_current_thread();
  // Ids are unique per log: the buffer index in the high bits.
  record_.id = ((buffer_->index + 1) << 40) | ++buffer_->next_id;
  record_.parent = tls.open_span;
  record_.frame = tls.frame;
  record_.lane = buffer_->lane;
  record_.layer = layer;
  tls.open_span = record_.id;
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  record_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start_ - log_->epoch())
                         .count();
  record_.dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  buffer_->records.push_back(record_);
  tls.open_span = record_.parent;
}

}  // namespace perfbench
