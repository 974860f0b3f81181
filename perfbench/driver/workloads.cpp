#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/joint_opt.hpp"
#include "exec/stem_cache.hpp"
#include "exec/workspace.hpp"
#include "gating/gate_trainer.hpp"
#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "runtime/budget.hpp"
#include "runtime/stream.hpp"
#include "spans.hpp"
#include "tensor/plan_cache.hpp"
#include "tensor/serialize.hpp"

namespace perfbench {

namespace core = eco::core;
namespace dataset = eco::dataset;
namespace exec = eco::exec;
namespace gating = eco::gating;
namespace obs = eco::obs;
namespace runtime = eco::runtime;

FrameDigest digest_of(const runtime::FrameStats& stats) {
  FrameDigest digest;
  digest.config = static_cast<std::uint32_t>(stats.config_index);
  digest.loss_bits = std::bit_cast<std::uint32_t>(stats.loss);
  digest.energy_bits = std::bit_cast<std::uint64_t>(stats.energy_j);
  digest.latency_bits = std::bit_cast<std::uint64_t>(stats.latency_ms);
  digest.lambda_bits = std::bit_cast<std::uint32_t>(stats.lambda_energy);
  digest.detections = static_cast<std::uint32_t>(stats.detections);
  return digest;
}

FrameDigest digest_of(const core::RunResult& run, float lambda_energy) {
  FrameDigest digest;
  digest.config = static_cast<std::uint32_t>(run.config_index);
  digest.loss_bits = std::bit_cast<std::uint32_t>(run.loss.total());
  digest.energy_bits = std::bit_cast<std::uint64_t>(run.energy_j);
  digest.latency_bits = std::bit_cast<std::uint64_t>(run.latency_ms);
  digest.lambda_bits = std::bit_cast<std::uint32_t>(lambda_energy);
  digest.detections = static_cast<std::uint32_t>(run.detections.size());
  return digest;
}

std::size_t count_mismatches(const std::vector<FrameDigest>& golden,
                             const std::vector<FrameDigest>& got) {
  const std::size_t common = std::min(golden.size(), got.size());
  std::size_t mismatches = std::max(golden.size(), got.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (!(golden[i] == got[i])) ++mismatches;
  }
  return mismatches;
}

namespace {

using Clock = std::chrono::steady_clock;

// ---- fixed workload parameters -------------------------------------------
constexpr float kGamma = 0.5f;          // §5: γ = 0.5 throughout
constexpr float kLambdaTable1 = 0.01f;  // Table 1's EcoFusion row
constexpr std::size_t kWindow = 16;     // frames per control window
constexpr std::size_t kSequenceLength = 16;
// Held by the BudgetController on attention_budget_stream. It lies inside
// the Attention gate's reachable J/frame range on every seed, so λ_E moves.
constexpr double kBudgetJPerFrame = 2.0;

constexpr std::size_t kSetupBurst = 3;  // set-ups timed per sampling point
constexpr std::size_t kMaxWarmupPasses = 8;
// A warm-up pass that is not this much faster than the best so far ends
// the warm-up: passes have stopped speeding up.
constexpr double kWarmupSpeedup = 0.02;
// Warm-up stops after this share of --seconds even while still speeding up.
constexpr double kWarmupShare = 0.25;
constexpr std::size_t kMinTimedPasses = 3;
constexpr std::size_t kMaxTraceFiles = 6;
constexpr std::size_t kTraceRingCapacity = 1u << 17;

enum class Kind { kKnowledgeStream, kAttentionBudgetStream, kFrameLatency };

struct Spec {
  Kind kind;
  const char* name;
  bool attention;  // learned Attention gate (else the Knowledge gate)
  std::size_t sequences_per_scene;  // 8 lanes x this x 16 frames per pass
};

constexpr Spec kSpecs[] = {
    {Kind::kKnowledgeStream, "knowledge_stream", false, 32},
    {Kind::kAttentionBudgetStream, "attention_budget_stream", true, 16},
    {Kind::kFrameLatency, "frame_latency", true, 8},
};

const Spec& find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// ---- JSON output ----------------------------------------------------------

std::string num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string str(const std::string& text) {
  std::string out = "\"";
  out += obs::json_escape(text);
  out += '"';
  return out;
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

class Object {
 public:
  Object& add(const char* key, const std::string& raw) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += raw;
    return *this;
  }
  Object& add(const char* key, double value) { return add(key, num(value)); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

// ---- program set-up -------------------------------------------------------

core::EngineConfig engine_config() {
  core::EngineConfig config;
  config.joint.gamma = kGamma;
  config.joint.lambda_energy = kLambdaTable1;
  return config;
}

gating::LearnedGateConfig attention_gate_config(
    const core::EcoFusionEngine& engine) {
  gating::LearnedGateConfig config;
  config.in_channels = engine.stems().gate_channels();
  config.num_configs = engine.config_space().size();
  config.use_attention = true;
  return config;
}

std::unique_ptr<gating::Gate> make_gate(const core::EcoFusionEngine& engine,
                                        const Spec& spec,
                                        const std::string& gate_path) {
  if (!spec.attention) {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  }
  auto gate =
      std::make_unique<gating::LearnedGate>(attention_gate_config(engine));
  if (!eco::tensor::load_params(gate->parameters(), gate_path)) {
    throw std::runtime_error("cannot load Attention gate weights from " +
                             gate_path);
  }
  return gate;
}

// Forwards to a gate, with spans around the stem features it pulls and
// around its inference. Used on traced passes only.
class TimedGate final : public gating::Gate {
 public:
  explicit TimedGate(std::unique_ptr<gating::Gate> inner)
      : inner_(std::move(inner)),
        reads_features_(
            inner_->complexity() == eco::energy::GateComplexity::kDeep ||
            inner_->complexity() == eco::energy::GateComplexity::kAttention) {}

  std::vector<float> predict_losses(const gating::GateInput& input) override {
    if (const auto* ws =
            dynamic_cast<const exec::FrameWorkspace*>(input.feature_source)) {
      set_current_frame(ws->frame().id);
    }
    ScopedSpan span(Layer::kGating);
    if (reads_features_) {
      ScopedSpan stems(Layer::kStems);
      (void)input.get_features();
    }
    return inner_->predict_losses(input);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] eco::energy::GateComplexity complexity() const override {
    return inner_->complexity();
  }
  [[nodiscard]] double modeled_cost_ms(
      const eco::energy::Px2Model& px2) const override {
    return inner_->modeled_cost_ms(px2);
  }
  [[nodiscard]] bool tunable() const override { return inner_->tunable(); }
  [[nodiscard]] bool needs_oracle() const override {
    return inner_->needs_oracle();
  }

 private:
  std::unique_ptr<gating::Gate> inner_;
  bool reads_features_;
};

runtime::GateFactory gate_factory(const core::EcoFusionEngine& engine,
                                  const Spec& spec,
                                  const std::string& gate_path, bool timed) {
  return [&engine, &spec, gate_path, timed]() -> std::unique_ptr<gating::Gate> {
    auto gate = make_gate(engine, spec, gate_path);
    if (timed) return std::make_unique<TimedGate>(std::move(gate));
    return gate;
  };
}

runtime::StreamConfig stream_config(const Spec& spec, std::uint64_t seed) {
  runtime::StreamConfig config;
  config.sequence.length = kSequenceLength;
  config.sequences_per_scene = spec.sequences_per_scene;
  config.seed = seed;
  return config;
}

runtime::PipelineConfig pipeline_config(const Spec& spec, std::size_t workers,
                                        bool tracing) {
  runtime::PipelineConfig config;
  config.workers = workers;
  config.window = kWindow;
  config.joint.gamma = kGamma;
  config.joint.lambda_energy = kLambdaTable1;
  if (spec.kind == Kind::kAttentionBudgetStream) {
    runtime::BudgetConfig budget;
    budget.target_j_per_frame = kBudgetJPerFrame;
    budget.initial_lambda = 0.0f;
    budget.gain = 0.5f;
    budget.max_step = 0.25f;
    config.budget = budget;
  }
  config.tracing = tracing;
  return config;
}

// ---- golden digests -------------------------------------------------------

struct Reference {
  std::vector<FrameDigest> digests;
  double candidates_mean = 0.0;
};

// The stream workloads' golden digest: every frame of the stream, one at a
// time on this thread, through a fresh workspace with no stem cache, no
// batching and no pool — with the budget loop replayed window by window
// exactly as the pipeline folds it.
Reference sequential_reference(const core::EcoFusionEngine& engine,
                               const runtime::PipelineConfig& config,
                               runtime::StreamConfig stream_cfg,
                               gating::Gate& gate) {
  stream_cfg.prefetch = 0;
  runtime::FrameStream stream(stream_cfg);
  runtime::BudgetController budget(
      config.budget.value_or(runtime::BudgetConfig{}));
  Reference reference;
  std::size_t candidates = 0;
  std::vector<runtime::StreamFrame> window;
  for (;;) {
    window.clear();
    while (window.size() < config.window) {
      std::optional<runtime::StreamFrame> frame = stream.next();
      if (!frame) break;
      window.push_back(std::move(*frame));
    }
    if (window.empty()) break;
    core::JointOptParams params = config.joint;
    const float lambda =
        config.budget ? budget.lambda() : config.joint.lambda_energy;
    const auto [lambda_energy, lambda_latency] =
        runtime::compose_control_weights(
            lambda, config.joint.lambda_latency, config.priority);
    params.lambda_energy = lambda_energy;
    params.lambda_latency = lambda_latency;
    double window_energy = 0.0;
    for (const runtime::StreamFrame& sf : window) {
      exec::FrameWorkspace ws(engine, sf.frame);
      const core::SelectionResult selection =
          engine.select_adaptive(ws, gate, params);
      const core::RunResult run =
          engine.run_selected(ws, selection.config_index, gate.complexity());
      reference.digests.push_back(digest_of(run, params.lambda_energy));
      window_energy += run.energy_j;
      candidates += selection.candidates.size();
    }
    if (config.budget) {
      budget.observe(window_energy / static_cast<double>(window.size()));
    }
  }
  if (!reference.digests.empty()) {
    reference.candidates_mean = static_cast<double>(candidates) /
                                static_cast<double>(reference.digests.size());
  }
  return reference;
}

std::vector<FrameDigest> digests_of(const runtime::PipelineReport& report) {
  std::vector<FrameDigest> digests;
  digests.reserve(report.frame_stats.size());
  for (const runtime::FrameStats& stats : report.frame_stats) {
    digests.push_back(digest_of(stats));
  }
  return digests;
}

// ---- passes ---------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  std::size_t frames = 0;
  bool traced = false;
  std::string trace_file;
  runtime::SchedulerStats scheduler;
  std::uint64_t dropped_spans = 0;
  std::vector<double> frame_ms;  // per-frame wall time, untraced passes
};

std::string pass_json(const Pass& pass) {
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  Object object;
  object.add("wall_s", pass.wall_s)
      .add("frames", static_cast<double>(pass.frames))
      .add("traced", pass.traced ? "true" : "false")
      .add("trace_file", pass.trace_file.empty() ? "null" : str(pass.trace_file))
      .add("queue_wait_ms", ms(pass.scheduler.queue_wait_ns))
      .add("barrier_wait_ms", ms(pass.scheduler.barrier_wait_ns))
      .add("ingest_wait_ms", ms(pass.scheduler.ingest_blocked_ns))
      .add("steals", static_cast<double>(pass.scheduler.steals))
      .add("windows_pipelined",
           static_cast<double>(pass.scheduler.windows_pipelined))
      .add("dropped_spans", static_cast<double>(pass.dropped_spans))
      .add("frame_ms", array(pass.frame_ms));
  return object.str();
}

// One traced pass's timeline: the pass interval, the library's obs trace
// (stream passes) and the benchmark's own spans, on one clock.
std::string trace_json(std::int64_t start_ns, std::int64_t end_ns,
                       std::size_t workers, std::size_t frames,
                       const std::string& obs_trace, const SpanLog& log) {
  std::string own = "[";
  bool first = true;
  char buf[192];
  for (const SpanRecord& r : log.records()) {
    std::snprintf(buf, sizeof buf, "%s[%llu,%llu,%llu,\"%s\",%u,%lld,%lld]",
                  first ? "" : ",", static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.frame),
                  layer_name(r.layer), r.lane,
                  static_cast<long long>(r.start_ns),
                  static_cast<long long>(r.dur_ns));
    own += buf;
    first = false;
  }
  own += "]";
  return Object()
      .add("start_ns", static_cast<double>(start_ns))
      .add("end_ns", static_cast<double>(end_ns))
      .add("workers", static_cast<double>(workers))
      .add("frames", static_cast<double>(frames))
      .add("own_fields", "[\"id\",\"parent\",\"frame\",\"layer\",\"lane\","
                         "\"start_ns\",\"dur_ns\"]")
      .add("own", own)
      .add("obs", obs_trace.empty() ? "null" : obs_trace)
      .str();
}

std::uint32_t obs_lane_of_thread() {
  obs::Tracer* tracer = obs::installed_tracer();
  return tracer != nullptr ? tracer->ring_for_current_thread()->lane() : 0;
}

// Runs a stream pass. Traced passes install an obs tracer and a span log
// for the pass and, when `trace_file` is set, write the pass timeline.
runtime::PipelineReport stream_pass(const core::EcoFusionEngine& engine,
                                    const Spec& spec,
                                    const RunOptions& options, bool traced,
                                    const std::string& trace_file,
                                    Pass* pass) {
  const runtime::PipelineConfig config =
      pipeline_config(spec, options.workers, traced);
  const runtime::GateFactory factory =
      gate_factory(engine, spec, options.gate_path, traced);
  const runtime::StreamConfig stream_cfg = stream_config(spec, options.seed);

  std::optional<obs::Tracer> tracer;
  std::optional<SpanLog> log;
  if (traced) {
    obs::TraceConfig trace_config;
    trace_config.ring_capacity = kTraceRingCapacity;
    tracer.emplace(trace_config);
    tracer->install();
    log.emplace(tracer->ring_for_current_thread()->epoch(),
                &obs_lane_of_thread);
    log->activate();
  }
  const auto start = Clock::now();
  runtime::PipelineReport report;
  {
    runtime::FrameStream stream(stream_cfg);
    const runtime::StreamingPipeline pipeline(engine, config);
    report = pipeline.run(stream, factory);
  }
  const auto end = Clock::now();
  pass->wall_s = std::chrono::duration<double>(end - start).count();
  pass->frames = report.frames;
  pass->traced = traced;
  pass->scheduler = report.scheduler;
  if (traced) {
    log->deactivate();
    tracer->uninstall();
    pass->dropped_spans = tracer->stats().dropped_spans;
    if (!trace_file.empty()) {
      if (!write_file(trace_file,
                      trace_json(ns_between(log->epoch(), start),
                                 ns_between(log->epoch(), end),
                                 options.workers, report.frames,
                                 tracer->trace_json(), *log))) {
        throw std::runtime_error("cannot write " + trace_file);
      }
      pass->trace_file = trace_file;
    }
  }
  return report;
}

struct LatencyPass {
  std::vector<double> frame_ms;
  std::vector<FrameDigest> digests;
  std::vector<eco::eval::FrameResult> results;  // when requested
  std::size_t candidates = 0;
  std::size_t scans_unique = 0;
  std::size_t scans_requested = 0;
  std::size_t zero_alloc_frames = 0;
  std::size_t arena_high_water = 0;
  exec::StemCacheCounters stem_cache;
};

// frame_latency's unit of work: one frame at a time through a workspace,
// the temporal stem cache, select_adaptive and run_selected. Traced frames
// take the same calls with a span around each layer; they request each of
// φ*'s channel scans and branch merges explicitly first, so the scan and
// merge times separate (run_selected then finds them memoized).
LatencyPass latency_pass(const core::EcoFusionEngine& engine,
                         const std::vector<runtime::StreamFrame>& frames,
                         gating::Gate& gate, exec::FrameArena& arena,
                         bool traced, bool keep_results) {
  LatencyPass out;
  out.frame_ms.reserve(frames.size());
  exec::TemporalStemCache cache(engine.stems());
  core::JointOptParams params = engine.config().joint;
  params.lambda_energy = kLambdaTable1;
  const eco::energy::GateComplexity complexity = gate.complexity();
  for (const runtime::StreamFrame& sf : frames) {
    const std::uint64_t allocs_before = eco::tensor::tensor_alloc_count();
    const auto start = Clock::now();
    std::optional<exec::FrameWorkspace> ws;
    core::SelectionResult selection;
    core::RunResult run;
    std::size_t explicit_scans = 0;
    if (!traced) {
      ws.emplace(engine, sf.frame, &cache, sf.sequence_id, true, &arena);
      selection = engine.select_adaptive(*ws, gate, params);
      run = engine.run_selected(*ws, selection.config_index, complexity);
    } else {
      set_current_frame(sf.frame.id);
      {
        ScopedSpan span(Layer::kExec);
        ws.emplace(engine, sf.frame, &cache, sf.sequence_id, true, &arena);
      }
      {
        ScopedSpan span(Layer::kStems);
        (void)ws->gate_features();
      }
      {
        ScopedSpan span(Layer::kJointOpt);
        selection = engine.select_adaptive(*ws, gate, params);
      }
      const auto& branches =
          engine.config_space()[selection.config_index].branches;
      for (const core::BranchId branch : branches) {
        const std::size_t channels =
            engine.branch_detector(branch).config().input_count;
        for (std::size_t c = 0; c < channels; ++c) {
          ScopedSpan span(Layer::kDetectScan);
          (void)ws->channel_scans().scan(branch, c);
          ++explicit_scans;
        }
      }
      for (const core::BranchId branch : branches) {
        ScopedSpan span(Layer::kDetectMerge);
        (void)ws->branch_detections(branch);
      }
      {
        ScopedSpan span(Layer::kFusion);
        run = engine.run_selected(*ws, selection.config_index, complexity);
      }
    }
    out.scans_unique += ws->channel_scans_unique();
    out.scans_requested += ws->channel_scans_requested() - explicit_scans;
    ws.reset();
    out.frame_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    if (eco::tensor::tensor_alloc_count() == allocs_before) {
      ++out.zero_alloc_frames;
    }
    out.arena_high_water =
        std::max(out.arena_high_water, arena.bytes_high_water());
    out.candidates += selection.candidates.size();
    out.digests.push_back(digest_of(run, params.lambda_energy));
    if (keep_results) {
      out.results.push_back({std::move(run.detections), sf.frame.objects});
    }
  }
  out.stem_cache = cache.counters();
  return out;
}

// ---- measurement schedule -------------------------------------------------

// Runs untraced passes until they stop speeding up (at least two, and no
// more once `budget_s` is spent). Returns the number of passes run; `walls`
// receives each pass's wall time.
template <typename PassFn>
std::size_t warm_up(PassFn&& pass, double budget_s,
                    std::vector<double>* walls) {
  const auto start = Clock::now();
  walls->push_back(pass());
  double best = walls->back();
  while (walls->size() < kMaxWarmupPasses &&
         (walls->size() < 2 || seconds_since(start) < budget_s)) {
    walls->push_back(pass());
    if (walls->back() > best * (1.0 - kWarmupSpeedup)) break;
    best = walls->back();
  }
  return walls->size();
}

std::string trace_file_name(const RunOptions& options, std::size_t index) {
  if (options.trace_dir.empty() || index >= kMaxTraceFiles) return {};
  return options.trace_dir + "/" + options.workload + "_pass" +
         std::to_string(index) + ".json";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Outcome {
  std::vector<double> setup_s;
  double cold_pass_s = 0.0;
  std::size_t warmup_passes = 0;
  std::size_t frames_per_pass = 0;
  std::vector<Pass> passes;  // timed passes
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double map = 0.0;
  double energy_j = 0.0;
  double px2_latency_ms = 0.0;
  Object counters;
  Object checks;
};

// One set-up: engine construction plus the gate's (loading its weights),
// timed into `samples`. Runs call it at the start and again after every
// pass, so the samples span the whole run, not one moment of it.
std::unique_ptr<core::EcoFusionEngine> set_up(const Spec& spec,
                                              const std::string& gate_path,
                                              std::vector<double>* samples) {
  const auto start = Clock::now();
  auto engine = std::make_unique<core::EcoFusionEngine>(engine_config());
  (void)make_gate(*engine, spec, gate_path);
  samples->push_back(seconds_since(start));
  return engine;
}

void resample_set_up(const Spec& spec, const std::string& gate_path,
                     std::vector<double>* samples) {
  for (std::size_t i = 0; i < kSetupBurst; ++i) {
    (void)set_up(spec, gate_path, samples);
  }
}

void run_stream_workload(const Spec& spec, const RunOptions& options,
                         Outcome* out) {
  const auto engine = set_up(spec, options.gate_path, &out->setup_s);
  resample_set_up(spec, options.gate_path, &out->setup_s);
  const std::uint64_t plan_misses_before = eco::tensor::plan_cache_miss_count();

  // Cold pass first (a fresh process), then warm-up. Their digests are
  // checked once the golden digest exists.
  std::vector<std::vector<FrameDigest>> early_digests;
  runtime::PipelineReport cold_report;
  std::size_t plan_misses = 0;
  std::vector<double> warm_walls;
  out->warmup_passes = warm_up(
      [&] {
        Pass pass;
        runtime::PipelineReport report =
            stream_pass(*engine, spec, options, false, {}, &pass);
        early_digests.push_back(digests_of(report));
        plan_misses += report.exec.plan_cache_misses;
        if (early_digests.size() == 1) cold_report = std::move(report);
        resample_set_up(spec, options.gate_path, &out->setup_s);
        return pass.wall_s;
      },
      options.seconds * kWarmupShare, &warm_walls);
  out->cold_pass_s = warm_walls.front();
  out->frames_per_pass = cold_report.frames;

  const auto reference_gate = make_gate(*engine, spec, options.gate_path);
  const Reference reference = sequential_reference(
      *engine, pipeline_config(spec, options.workers, false),
      stream_config(spec, options.seed), *reference_gate);
  for (const auto& digests : early_digests) {
    out->attempted += digests.size();
    out->failed += count_mismatches(reference.digests, digests);
  }

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  std::size_t traced_passes = 0;
  while (out->passes.size() < kMinTimedPasses || Clock::now() < deadline) {
    const bool traced = options.trace && out->passes.size() % 2 == 0;
    Pass pass;
    const runtime::PipelineReport report = stream_pass(
        *engine, spec, options, traced,
        traced ? trace_file_name(options, traced_passes++) : std::string{},
        &pass);
    const std::vector<FrameDigest> digests = digests_of(report);
    out->attempted += digests.size();
    out->failed += count_mismatches(reference.digests, digests);
    plan_misses += report.exec.plan_cache_misses;
    if (!traced) {
      for (const runtime::FrameStats& stats : report.frame_stats) {
        pass.frame_ms.push_back(stats.wall_ms);
      }
    }
    out->passes.push_back(std::move(pass));
    resample_set_up(spec, options.gate_path, &out->setup_s);
  }
  plan_misses += eco::tensor::plan_cache_miss_count() - plan_misses_before;

  const runtime::PipelineReport& r = cold_report;
  const auto frames = static_cast<double>(std::max<std::size_t>(r.frames, 1));
  out->map = r.map;
  out->energy_j = r.mean_energy_j;
  out->px2_latency_ms = r.mean_latency_ms;
  const std::size_t stem_lookups =
      r.exec.stem_cache_hits + r.exec.stem_cache_misses;
  out->counters
      .add("stems.cache_hit_ratio",
           stem_lookups == 0 ? 0.0
                             : static_cast<double>(r.exec.stem_cache_hits) /
                                   static_cast<double>(stem_lookups))
      .add("joint_opt.candidates_mean", reference.candidates_mean)
      .add("detect.scans_per_frame",
           static_cast<double>(r.exec.channel_scans_unique) / frames)
      .add("detect.scan_dedup_ratio",
           static_cast<double>(r.exec.channel_scans_requested) /
               static_cast<double>(
                   std::max<std::size_t>(r.exec.channel_scans_unique, 1)))
      .add("exec.mean_batch", r.exec.mean_batch)
      .add("exec.zero_alloc_share",
           static_cast<double>(r.exec.zero_alloc_frames) / frames)
      .add("exec.arena_bytes_high_water",
           static_cast<double>(r.exec.arena_bytes_high_water))
      .add("tensor.plan_cache_misses", static_cast<double>(plan_misses));

  if (spec.kind == Kind::kAttentionBudgetStream) {
    const std::set<float> lambdas(r.lambda_trace.begin(), r.lambda_trace.end());
    out->checks.add("lambda_trace_varies", lambdas.size() > 1 ? "true" : "false");
  }
}

void run_latency_workload(const Spec& spec, const RunOptions& options,
                          Outcome* out) {
  const auto engine = set_up(spec, options.gate_path, &out->setup_s);
  resample_set_up(spec, options.gate_path, &out->setup_s);
  const auto gate = make_gate(*engine, spec, options.gate_path);
  const std::uint64_t plan_misses_before = eco::tensor::plan_cache_miss_count();

  // Pre-render the frames (dataset layer), timing each stream pull.
  runtime::StreamConfig stream_cfg = stream_config(spec, options.seed);
  stream_cfg.prefetch = 0;
  std::vector<runtime::StreamFrame> frames;
  double render_s = 0.0;
  {
    runtime::FrameStream stream(stream_cfg);
    for (;;) {
      const auto start = Clock::now();
      std::optional<runtime::StreamFrame> frame = stream.next();
      render_s += seconds_since(start);
      if (!frame) break;
      frames.push_back(std::move(*frame));
    }
  }
  out->frames_per_pass = frames.size();

  exec::FrameArena arena;
  TimedGate timed_gate(make_gate(*engine, spec, options.gate_path));
  std::vector<std::vector<FrameDigest>> early_digests;
  std::optional<LatencyPass> cold;
  std::vector<double> warm_walls;
  out->warmup_passes = warm_up(
      [&] {
        const auto start = Clock::now();
        LatencyPass pass =
            latency_pass(*engine, frames, *gate, arena, false, !cold);
        const double wall = seconds_since(start);
        early_digests.push_back(std::move(pass.digests));
        if (!cold) cold = std::move(pass);
        resample_set_up(spec, options.gate_path, &out->setup_s);
        return wall;
      },
      options.seconds * kWarmupShare, &warm_walls);
  out->cold_pass_s = warm_walls.front();

  // Golden digest: the streaming pipeline's own per-frame results on the
  // same stream at the same λ_E — this driver must reproduce its choices.
  std::size_t plan_misses = 0;
  std::vector<FrameDigest> golden;
  {
    Spec pipeline_spec = spec;
    pipeline_spec.kind = Kind::kKnowledgeStream;  // no budget loop
    Pass unused;
    const runtime::PipelineReport report =
        stream_pass(*engine, pipeline_spec, options, false, {}, &unused);
    golden = digests_of(report);
    plan_misses += report.exec.plan_cache_misses;
  }
  for (const auto& digests : early_digests) {
    out->attempted += digests.size();
    out->failed += count_mismatches(golden, digests);
  }

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  std::size_t traced_passes = 0;
  while (out->passes.size() < kMinTimedPasses || Clock::now() < deadline) {
    const bool traced = options.trace && out->passes.size() % 2 == 0;
    const std::string file =
        traced ? trace_file_name(options, traced_passes++) : std::string{};
    std::optional<SpanLog> log;
    if (traced) {
      log.emplace(Clock::now(), nullptr);
      log->activate();
    }
    gating::Gate& pass_gate = traced ? timed_gate : *gate;
    Pass pass;
    const auto start = Clock::now();
    const LatencyPass result =
        latency_pass(*engine, frames, pass_gate, arena, traced, false);
    const auto end = Clock::now();
    pass.wall_s = std::chrono::duration<double>(end - start).count();
    pass.frames = frames.size();
    pass.traced = traced;
    if (traced) {
      log->deactivate();
      if (!file.empty()) {
        if (!write_file(file, trace_json(ns_between(log->epoch(), start),
                                         ns_between(log->epoch(), end), 1,
                                         frames.size(), {}, *log))) {
          throw std::runtime_error("cannot write " + file);
        }
        pass.trace_file = file;
      }
    } else {
      pass.frame_ms = result.frame_ms;
    }
    out->attempted += result.digests.size();
    out->failed += count_mismatches(golden, result.digests);
    out->passes.push_back(std::move(pass));
    resample_set_up(spec, options.gate_path, &out->setup_s);
  }
  plan_misses += eco::tensor::plan_cache_miss_count() - plan_misses_before;

  const LatencyPass& c = *cold;
  const auto n = static_cast<double>(std::max<std::size_t>(frames.size(), 1));
  double energy = 0.0;
  double latency = 0.0;
  for (const FrameDigest& digest : early_digests.front()) {
    energy += std::bit_cast<double>(digest.energy_bits);
    latency += std::bit_cast<double>(digest.latency_bits);
  }
  out->map = eco::eval::mean_average_precision(c.results);
  out->energy_j = energy / n;
  out->px2_latency_ms = latency / n;
  const std::uint64_t lookups = c.stem_cache.hits + c.stem_cache.misses;
  out->counters
      .add("dataset.render_us", render_s * 1e6 / n)
      .add("stems.cache_hit_ratio",
           lookups == 0 ? 0.0
                        : static_cast<double>(c.stem_cache.hits) /
                              static_cast<double>(lookups))
      .add("joint_opt.candidates_mean", static_cast<double>(c.candidates) / n)
      .add("detect.scans_per_frame", static_cast<double>(c.scans_unique) / n)
      .add("detect.scan_dedup_ratio",
           static_cast<double>(c.scans_requested) /
               static_cast<double>(std::max<std::size_t>(c.scans_unique, 1)))
      .add("exec.mean_batch", 1.0)
      .add("exec.zero_alloc_share", static_cast<double>(c.zero_alloc_frames) / n)
      .add("exec.arena_bytes_high_water",
           static_cast<double>(c.arena_high_water))
      .add("tensor.plan_cache_misses", static_cast<double>(plan_misses));
}

}  // namespace

int run_workload(const RunOptions& options) {
  const Spec& spec = find_spec(options.workload);
  Outcome out;
  if (spec.kind == Kind::kFrameLatency) {
    run_latency_workload(spec, options, &out);
  } else {
    run_stream_workload(spec, options, &out);
  }

  std::string passes = "[";
  for (std::size_t i = 0; i < out.passes.size(); ++i) {
    if (i > 0) passes += ",";
    passes += pass_json(out.passes[i]);
  }
  passes += "]";
  const obs::BuildInfo& build = obs::build_info();
  const std::string result =
      Object()
          .add("workload", str(options.workload))
          .add("seed", static_cast<double>(options.seed))
          .add("seconds", options.seconds)
          .add("trace", options.trace ? "true" : "false")
          .add("workers", static_cast<double>(options.workers))
          .add("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()))
          .add("compiler", str(build.compiler))
          .add("build_type", str(build.build_type))
          .add("git_sha", str(build.git_sha))
          .add("frames_per_pass", static_cast<double>(out.frames_per_pass))
          .add("setup_s", array(out.setup_s))
          .add("cold_pass_s", out.cold_pass_s)
          .add("warmup_passes", static_cast<double>(out.warmup_passes))
          .add("passes", passes)
          .add("attempted", static_cast<double>(out.attempted))
          .add("failed", static_cast<double>(out.failed))
          .add("map", out.map)
          .add("energy_j", out.energy_j)
          .add("px2_latency_ms", out.px2_latency_ms)
          .add("peak_rss_mb", peak_rss_mb())
          .add("counters", out.counters.str())
          .add("checks", out.checks.str())
          .str();
  std::printf("%s\n", result.c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

int train_gate(const std::string& weights_path, const std::string& meta_path) {
  constexpr std::uint64_t kDatasetSeed = 2022;
  constexpr std::size_t kFramesPerScene = 40;
  dataset::DatasetConfig data_config;
  data_config.frames_per_scene = kFramesPerScene;
  data_config.seed = kDatasetSeed;
  const dataset::Dataset data(data_config);
  const core::EcoFusionEngine engine(engine_config());

  std::vector<gating::GateExample> examples;
  for (std::size_t index : data.train_indices()) {
    gating::GateExample example;
    example.features = engine.gate_features(data.frame(index));
    example.config_losses = engine.config_losses(data.frame(index));
    examples.push_back(std::move(example));
  }
  const gating::LearnedGateConfig gate_config = attention_gate_config(engine);
  gating::LearnedGate gate(gate_config);
  const gating::GateTrainConfig train_config;
  const gating::GateTrainHistory history =
      gating::train_gate(gate, examples, train_config);
  const float accuracy = gating::gate_selection_accuracy(gate, examples);
  if (!eco::tensor::save_params(gate.parameters(), weights_path)) {
    std::fprintf(stderr, "ecobench: cannot write %s\n", weights_path.c_str());
    return 1;
  }
  const auto z = [](std::size_t v) { return static_cast<double>(v); };
  const std::string meta =
      Object()
          .add("weights", str("attention_gate.bin"))
          .add("dataset",
               Object()
                   .add("seed", z(kDatasetSeed))
                   .add("frames_per_scene", z(kFramesPerScene))
                   .add("train_examples", z(examples.size()))
                   .str())
          .add("engine", Object().add("gamma", kGamma).str())
          .add("gate",
               Object()
                   .add("kind", str("Attention"))
                   .add("in_channels", z(gate_config.in_channels))
                   .add("in_height", z(gate_config.in_height))
                   .add("in_width", z(gate_config.in_width))
                   .add("hidden_channels", z(gate_config.hidden_channels))
                   .add("attn_dim", z(gate_config.attn_dim))
                   .add("mlp_hidden", z(gate_config.mlp_hidden))
                   .add("num_configs", z(gate_config.num_configs))
                   .add("init_seed", z(gate_config.seed))
                   .str())
          .add("training",
               Object()
                   .add("epochs", z(train_config.epochs))
                   .add("learning_rate", train_config.learning_rate)
                   .add("lr_decay", train_config.lr_decay)
                   .add("weight_decay", train_config.weight_decay)
                   .add("grad_clip", train_config.grad_clip)
                   .add("shuffle_seed", z(train_config.shuffle_seed))
                   .add("regret_targets",
                        train_config.regret_targets ? "true" : "false")
                   .add("final_loss", history.final_loss())
                   .add("train_selection_accuracy", accuracy)
                   .str())
          .str();
  if (!write_file(meta_path, meta + "\n")) {
    std::fprintf(stderr, "ecobench: cannot write %s\n", meta_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "trained Attention gate: loss %.4f, accuracy %.3f\n",
               history.final_loss(), accuracy);
  return 0;
}

int selftest() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  std::vector<FrameDigest> golden(8);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    golden[i].config = static_cast<std::uint32_t>(i % 3);
    golden[i].loss_bits = std::bit_cast<std::uint32_t>(0.25f * float(i));
    golden[i].energy_bits = std::bit_cast<std::uint64_t>(1.5 + double(i));
    golden[i].detections = static_cast<std::uint32_t>(i);
  }
  check(count_mismatches(golden, golden) == 0, "identical digests pass");
  for (int field = 0; field < 6; ++field) {
    std::vector<FrameDigest> got = golden;
    FrameDigest& d = got[5];
    switch (field) {
      case 0: d.config ^= 1u; break;
      case 1: d.loss_bits ^= 1u; break;  // one ulp of the loss
      case 2: d.energy_bits ^= 1u; break;
      case 3: d.latency_bits ^= 1u; break;
      case 4: d.lambda_bits ^= 1u; break;
      default: d.detections += 1; break;
    }
    check(count_mismatches(golden, got) == 1,
          "one changed field of one frame flags exactly that frame");
  }
  std::vector<FrameDigest> shorter(golden.begin(), golden.end() - 2);
  check(count_mismatches(golden, shorter) == 2, "missing frames count");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
