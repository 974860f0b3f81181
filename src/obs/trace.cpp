#include "obs/trace.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

namespace eco::obs {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

/// Monotonic tracer identity source. Each Tracer takes the next value at
/// construction; 0 is never issued, so a default cache matches no tracer.
std::atomic<std::uint64_t> g_tracer_generation{0};

/// Per-thread cached ring so a ShardScope on a hot worker costs one integer
/// compare instead of a registry lookup. Keyed on the tracer's generation,
/// not its address: a new tracer constructed at a reused address (sequential
/// stack tracers, heap reuse) must never alias a destroyed tracer's entry,
/// or Span::~Span would write into freed memory.
struct ThreadRingCache {
  std::uint64_t generation = 0;
  SpanRing* ring = nullptr;
};
thread_local ThreadRingCache tls_ring_cache;

constexpr std::array<StageInfo, kNumStages> kStages = {{
    {"stream_pull", "runtime", {"frames", "window", nullptr, nullptr}},
    {"phase_a_select", "runtime", {"config", "slot", nullptr, nullptr}},
    {"stem_compute", "exec", {"sequence", nullptr, nullptr, nullptr}},
    {"stem_cache_hit", "exec", {"sequence", nullptr, nullptr, nullptr}},
    {"channel_scan", "exec", {"scan_id", nullptr, nullptr, nullptr}},
    {"nms_merge", "engine", {"config", "branches", nullptr, nullptr}},
    {"finish_frame", "runtime", {"config", "arena_bytes", nullptr, nullptr}},
    {"window_update", "control", {"lambda_e", "lambda_l", "frames", nullptr}},
    {"shard_merge", "runtime", {"shards", "frames", nullptr, nullptr}},
    {"scheduler_idle", "scheduler", {"worker", nullptr, nullptr, nullptr}},
    {"ingest_generate", "ingest", {"sequence", "frames", nullptr, nullptr}},
    {"ingest_wait", "ingest", {"index", nullptr, nullptr, nullptr}},
}};

void append_number(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

}  // namespace

const StageInfo& stage_info(Stage stage) noexcept {
  return kStages[static_cast<std::size_t>(stage)];
}

Tracer::Tracer(TraceConfig config)
    : config_(config),
      generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed) +
                  1),
      epoch_(std::chrono::steady_clock::now()) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

Tracer::~Tracer() { uninstall(); }

void Tracer::install() {
  Tracer* expected = nullptr;
  if (!g_tracer.compare_exchange_strong(expected, this,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    if (expected != this) {
      throw std::logic_error("obs::Tracer: another tracer is installed");
    }
    return;
  }
  installed_ = true;
}

void Tracer::uninstall() noexcept {
  if (!installed_) return;
  Tracer* expected = this;
  g_tracer.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  installed_ = false;
}

Tracer* installed_tracer() noexcept {
  return g_tracer.load(std::memory_order_relaxed);
}

SpanRing* Tracer::ring_for_current_thread() {
  if (tls_ring_cache.generation == generation_) return tls_ring_cache.ring;
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<SpanRing>(
      config_.ring_capacity, static_cast<std::uint32_t>(rings_.size()),
      epoch_));
  tls_ring_cache = {generation_, rings_.back().get()};
  return tls_ring_cache.ring;
}

TraceStats Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceStats stats;
  std::set<std::uint16_t> shards;
  for (const auto& ring : rings_) {
    stats.total_spans += ring->size();
    stats.dropped_spans += ring->dropped();
    for (std::size_t i = 0; i < ring->size(); ++i) {
      const SpanRecord& record = ring->record(i);
      stats.per_stage[static_cast<std::size_t>(record.stage)] += 1;
      shards.insert(record.shard);
    }
  }
  stats.shard_lanes = shards.size();
  return stats;
}

std::string Tracer::trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(1u << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Process/thread metadata: one "process" per shard lane, one "thread"
  // per ring. Collected first so Perfetto labels lanes up front.
  std::set<std::pair<std::uint16_t, std::uint32_t>> lanes;
  std::set<std::uint16_t> shards;
  for (const auto& ring : rings_) {
    for (std::size_t i = 0; i < ring->size(); ++i) {
      const SpanRecord& record = ring->record(i);
      shards.insert(record.shard);
      lanes.insert({record.shard, ring->lane()});
    }
  }
  char buf[256];
  for (std::uint16_t shard : shards) {
    if (!first) out += ",";
    first = false;
    if (shard == kRunShard) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                    "\"args\":{\"name\":\"run\"}}",
                    kRunShard);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                    "\"args\":{\"name\":\"shard %u\"}}",
                    shard, shard);
    }
    out += buf;
  }
  for (const auto& [shard, lane] : lanes) {
    std::snprintf(buf, sizeof buf,
                  ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"lane %u\"}}",
                  shard, lane, lane);
    out += buf;
  }

  for (const auto& ring : rings_) {
    for (std::size_t i = 0; i < ring->size(); ++i) {
      const SpanRecord& record = ring->record(i);
      const StageInfo& info = stage_info(record.stage);
      if (!first) out += ",";
      first = false;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                    info.name, info.category,
                    static_cast<double>(record.start_ns) / 1000.0,
                    static_cast<double>(record.dur_ns) / 1000.0, record.shard,
                    ring->lane());
      out += buf;
      if (record.num_args > 0) {
        out += ",\"args\":{";
        for (std::uint8_t a = 0; a < record.num_args; ++a) {
          if (a > 0) out += ",";
          out += "\"";
          out += info.args[a] != nullptr ? info.args[a] : "arg";
          out += "\":";
          append_number(out, record.args[a]);
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::string json = trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace eco::obs
