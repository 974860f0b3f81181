// Observability-layer tests: the span tracer must be provably off the
// deterministic path (merged reports bitwise identical with tracing on or
// off, across shard × worker counts), histogram metrics must be exact under
// merging and invariant to worker count, ring overflow must degrade to a
// valid truncated trace, and the run-manifest/trace exporters must emit
// strictly valid JSON.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"

namespace eco::runtime {
namespace {

ShardGateFactory knowledge_factory() {
  return [](const core::EcoFusionEngine& engine) {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  };
}

// Deterministic fixed-seed Deep gate; it pulls the stem features F every
// frame, so stem compute / cache-hit spans are genuinely on the path.
ShardGateFactory deep_factory() {
  return [](const core::EcoFusionEngine& engine) {
    gating::LearnedGateConfig config;
    config.num_configs = engine.config_space().size();
    return std::make_unique<gating::LearnedGate>(config);
  };
}

StreamConfig small_stream() {
  StreamConfig config;
  config.sequence.length = 8;
  config.sequences_per_scene = 1;
  config.seed = 99;
  return config;
}

ShardedReport run_sharded(std::size_t shards, std::size_t workers,
                          bool tracing,
                          const ShardGateFactory& gates = knowledge_factory()) {
  ShardedConfig config;
  config.shards = shards;
  config.pipeline.workers = workers;
  config.pipeline.window = 16;
  config.pipeline.tracing = tracing;
  ShardedPipeline pipeline(config);
  return pipeline.run(small_stream(), gates);
}

/// Bitwise equality of every field the determinism contract covers,
/// including the full per-frame records.
void expect_reports_equal(const PipelineReport& a, const PipelineReport& b) {
  ASSERT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.total_detections, b.total_detections);
  EXPECT_EQ(a.exec.branch_runs, b.exec.branch_runs);
  EXPECT_EQ(a.exec.channel_scans_requested, b.exec.channel_scans_requested);
  EXPECT_EQ(a.exec.channel_scans_unique, b.exec.channel_scans_unique);
  EXPECT_EQ(a.exec.stems_skipped, b.exec.stems_skipped);
  EXPECT_EQ(a.exec.stem_cache_hits, b.exec.stem_cache_hits);
  EXPECT_EQ(a.exec.stem_cache_misses, b.exec.stem_cache_misses);
  ASSERT_EQ(a.frame_stats.size(), b.frame_stats.size());
  for (std::size_t i = 0; i < a.frame_stats.size(); ++i) {
    const FrameStats& x = a.frame_stats[i];
    const FrameStats& y = b.frame_stats[i];
    EXPECT_EQ(x.stream_index, y.stream_index);
    EXPECT_EQ(x.config_index, y.config_index);
    EXPECT_EQ(x.loss, y.loss);              // bitwise
    EXPECT_EQ(x.energy_j, y.energy_j);      // bitwise
    EXPECT_EQ(x.latency_ms, y.latency_ms);  // bitwise
    EXPECT_EQ(x.detections, y.detections);
  }
}

// ---- histograms -----------------------------------------------------------

TEST(Histogram, BucketingIsExactPowerOfTwo) {
  using obs::Histogram;
  // Bucket i covers [2^(i+kMinExp-1), 2^(i+kMinExp)); 1.0 = 2^0 sits in the
  // bucket whose upper bound is 2 (frexp(1.0) -> 0.5 * 2^1).
  const std::size_t one = Histogram::bucket_of(1.0);
  EXPECT_EQ(Histogram::bucket_upper(one), 2.0);
  EXPECT_EQ(Histogram::bucket_of(1.5), one);
  EXPECT_EQ(Histogram::bucket_of(2.0), one + 1);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-3.0), 0u);
  // Overflow clamps to the top bucket instead of wrapping.
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, RecordAndPercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.record(1.0);   // bucket upper bound 2
  for (int i = 0; i < 10; ++i) h.record(100.0); // bucket upper bound 128
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.percentile(0.50), 2.0);
  EXPECT_EQ(h.percentile(0.90), 2.0);
  EXPECT_EQ(h.percentile(0.95), 128.0);
  EXPECT_EQ(h.percentile(0.99), 128.0);
}

TEST(Histogram, NanSamplesAreDroppedEntirely) {
  obs::Histogram h;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  h.record(nan);  // NaN-first must not poison min/max
  EXPECT_EQ(h.total(), 0u);
  h.record(2.0);
  h.record(nan);
  h.record(8.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.min(), 2.0);
  EXPECT_EQ(h.max(), 8.0);
  obs::MetricsRegistry registry;
  registry.histogram("modeled/latency_ms") = h;
  EXPECT_TRUE(obs::json_valid(registry.to_json()));
  EXPECT_EQ(registry.to_json().find("nan"), std::string::npos);
}

TEST(Histogram, MergeEqualsConcatenation) {
  obs::Histogram merged_parts, whole;
  obs::Histogram a, b;
  const double samples[] = {0.25, 1.0, 3.5, 7.0, 64.0, 0.001, 9000.0};
  std::size_t i = 0;
  for (double v : samples) {
    ((i++ % 2 == 0) ? a : b).record(v);
    whole.record(v);
  }
  merged_parts.merge(a);
  merged_parts.merge(b);
  EXPECT_TRUE(merged_parts == whole);
}

TEST(MetricsRegistry, MergeSemanticsAndJson) {
  obs::MetricsRegistry a, b;
  a.add_counter("frames", 10);
  b.add_counter("frames", 32);
  a.set_gauge("obs/high_water", 100.0);
  b.set_gauge("obs/high_water", 250.0);
  a.histogram("modeled/latency_ms").record(4.0);
  b.histogram("modeled/latency_ms").record(16.0);
  a.merge(b);
  EXPECT_EQ(a.counter("frames"), 42u);          // counters sum
  const std::string json = a.to_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  ASSERT_NE(a.find_histogram("modeled/latency_ms"), nullptr);
  EXPECT_EQ(a.find_histogram("modeled/latency_ms")->total(), 2u);
}

TEST(MetricsRegistry, LongNamesAndSmallValuesStayValidJson) {
  // A realistic long histogram name plus six sub-millisecond %.6g values
  // (11-13 chars each) used to overflow a fixed formatting buffer and emit
  // truncated — invalid — JSON. Names must never be length-limited.
  obs::MetricsRegistry registry;
  const std::string long_name(120, 'x');
  obs::Histogram& h =
      registry.histogram("modeled/scan_dedup_ratio_" + long_name);
  for (int i = 0; i < 1000000; ++i) h.record(0.000976562);
  registry.add_counter("counter_" + long_name, 123456789012345ull);
  registry.set_gauge("gauge_" + long_name, 0.000976562);
  const std::string json = registry.to_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find(long_name), std::string::npos);
  EXPECT_NE(json.find("0.000976562"), std::string::npos);
}

// ---- JSON validator -------------------------------------------------------

TEST(JsonValidator, AcceptsAndRejects) {
  using obs::json_valid;
  EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": null}}"));
  EXPECT_TRUE(json_valid("[true, false, \"\\u00e9\\n\"]"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("[1] trailing"));
  EXPECT_FALSE(json_valid("{\"unterminated: 1}"));
  EXPECT_FALSE(json_valid("01"));  // leading zero
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- tracing vs determinism ----------------------------------------------

TEST(Tracing, MergedReportsBitwiseIdenticalOnOrOff) {
  obs::Tracer tracer;
  tracer.install();
  for (std::size_t shards : {1u, 2u}) {
    for (std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      const ShardedReport traced = run_sharded(shards, workers, true);
      const ShardedReport untraced = run_sharded(shards, workers, false);
      expect_reports_equal(traced.merged, untraced.merged);
    }
  }
  EXPECT_GT(tracer.stats().total_spans, 0u);
  tracer.uninstall();
}

TEST(Tracing, NoSpansWhenFlagOffDespiteInstalledTracer) {
  obs::Tracer tracer;
  tracer.install();
  (void)run_sharded(2, 4, /*tracing=*/false);
  EXPECT_EQ(tracer.stats().total_spans, 0u);
  tracer.uninstall();
}

TEST(Tracing, CoversStagesAndShardLanes) {
  obs::Tracer tracer;
  tracer.install();
  // The Deep gate pulls stem features every frame, putting stem spans on
  // the path alongside the always-on runtime stages.
  (void)run_sharded(2, 4, /*tracing=*/true, deep_factory());
  const obs::TraceStats stats = tracer.stats();
  auto count = [&stats](obs::Stage stage) {
    return stats.per_stage[static_cast<std::size_t>(stage)];
  };
  EXPECT_GT(count(obs::Stage::kStreamPull), 0u);
  EXPECT_GT(count(obs::Stage::kSelect), 0u);
  EXPECT_GT(count(obs::Stage::kChannelScan), 0u);
  EXPECT_GT(count(obs::Stage::kNmsMerge), 0u);
  EXPECT_GT(count(obs::Stage::kFinishFrame), 0u);
  EXPECT_GT(count(obs::Stage::kWindowUpdate), 0u);
  EXPECT_GT(count(obs::Stage::kShardMerge), 0u);
  EXPECT_GT(count(obs::Stage::kStemCompute) + count(obs::Stage::kStemCacheHit),
            0u);
  // Shards 0 and 1 plus the run-level merge lane.
  EXPECT_GE(stats.shard_lanes, 3u);
  const std::string json = tracer.trace_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_merge\""), std::string::npos);
  tracer.uninstall();
}

TEST(Tracing, SequentialTracersNeverAliasThreadRingCaches) {
  // Stack-allocated tracers in a loop reuse the same address. If the
  // per-thread ring cache were keyed on that address, iteration 2's spans
  // would be written into iteration 1's freed ring (use-after-free) and
  // silently vanish from iteration 2's stats. Generation keying makes each
  // tracer's identity unique regardless of address reuse.
  for (int i = 0; i < 3; ++i) {
    obs::Tracer tracer;
    tracer.install();
    {
      obs::ShardScope scope(0, /*active=*/true);
      obs::Span span(obs::Stage::kStreamPull);
    }
    EXPECT_EQ(tracer.stats().total_spans, 1u);
    tracer.uninstall();
  }
}

TEST(Tracing, RingOverflowDropsSpansButTraceStaysValid) {
  obs::TraceConfig config;
  config.ring_capacity = 4;  // far below one run's span volume
  obs::Tracer tracer(config);
  tracer.install();
  (void)run_sharded(1, 2, /*tracing=*/true);
  const obs::TraceStats stats = tracer.stats();
  EXPECT_GT(stats.dropped_spans, 0u);
  EXPECT_GT(stats.total_spans, 0u);
  // Every retained record predates the overflow; the export still parses.
  EXPECT_TRUE(obs::json_valid(tracer.trace_json()));
  tracer.uninstall();
}

// ---- metrics over reports -------------------------------------------------

TEST(RunMetrics, ModeledHistogramInvariantToWorkerCount) {
  const ShardedReport one = run_sharded(1, 1, false);
  const ShardedReport four = run_sharded(1, 4, false);
  const obs::MetricsRegistry m1 = collect_run_metrics(one.merged);
  const obs::MetricsRegistry m4 = collect_run_metrics(four.merged);
  ASSERT_NE(m1.find_histogram("modeled/latency_ms"), nullptr);
  EXPECT_TRUE(*m1.find_histogram("modeled/latency_ms") ==
              *m4.find_histogram("modeled/latency_ms"));
  EXPECT_EQ(m1.counter("frames"), m4.counter("frames"));
  EXPECT_EQ(m1.counter("detections"), m4.counter("detections"));
}

TEST(RunMetrics, HistogramMergeMatchesWholeRunCollection) {
  // Split the merged report's frame records in half, collect metrics per
  // half, merge — the histogram must equal the whole-run collection
  // (integer bucket counts, grouping-invariant by construction).
  const ShardedReport run = run_sharded(2, 4, false);
  const PipelineReport& whole = run.merged;
  PipelineReport first, second;
  const std::size_t half = whole.frame_stats.size() / 2;
  first.frame_stats.assign(whole.frame_stats.begin(),
                           whole.frame_stats.begin() + half);
  second.frame_stats.assign(whole.frame_stats.begin() + half,
                            whole.frame_stats.end());
  obs::MetricsRegistry merged = collect_run_metrics(first);
  merged.merge(collect_run_metrics(second));
  const obs::MetricsRegistry direct = collect_run_metrics(whole);
  EXPECT_TRUE(*merged.find_histogram("modeled/latency_ms") ==
              *direct.find_histogram("modeled/latency_ms"));
  EXPECT_TRUE(*merged.find_histogram("obs/wall_ms") ==
              *direct.find_histogram("obs/wall_ms"));
}

// ---- control slices through the merge ------------------------------------

TEST(ControlSlices, CarriedPerShardThroughMerge) {
  const ShardedReport run = run_sharded(2, 4, false);
  ASSERT_EQ(run.merged.control_slices.size(), 2u);
  std::size_t frames = 0;
  for (std::size_t s = 0; s < run.merged.control_slices.size(); ++s) {
    const ControlSlice& slice = run.merged.control_slices[s];
    EXPECT_EQ(slice.shard_index, s);
    frames += slice.frames;
    // The slice mirrors the shard's own trace verbatim.
    ASSERT_LT(s, run.shards.size());
    EXPECT_EQ(slice.lambda_trace, run.shards[s].lambda_trace);
    EXPECT_EQ(slice.deadline_trace, run.shards[s].deadline_trace);
    EXPECT_EQ(slice.final_lambda, run.shards[s].final_lambda);
  }
  EXPECT_EQ(frames, run.merged.frames);

  // An unsharded pipeline reports exactly one slice — its own flat traces.
  // (A sharded merge, even at 1 shard, leaves the flat merged traces empty
  // by design; only the slices carry them.)
  const core::EcoFusionEngine engine;
  PipelineConfig config;
  config.workers = 2;
  config.window = 16;
  StreamingPipeline pipeline(engine, config);
  FrameStream stream(small_stream());
  const PipelineReport single = pipeline.run(stream, [&engine] {
    return std::make_unique<gating::KnowledgeGate>(
        engine.default_knowledge_table(), engine.config_space().size());
  });
  ASSERT_EQ(single.control_slices.size(), 1u);
  EXPECT_EQ(single.control_slices[0].lambda_trace, single.lambda_trace);
  EXPECT_EQ(single.control_slices[0].deadline_trace, single.deadline_trace);
}

// ---- manifest -------------------------------------------------------------

TEST(Manifest, EmitsValidSelfDescribingJson) {
  obs::RunManifest manifest;
  manifest.tool = "obs_test";
  manifest.params = {{"window", "16"}, {"note", "quote\"and\\slash"}};
  manifest.capture_env({"ECO_OBS_TEST_UNSET_VAR"});
  manifest.shard_control.push_back({0, {0.1f, 0.2f}, {0.0f, 0.5f}});
  manifest.report_fields = {{"modeled_map", 0.5}, {"frames", 64.0}};
  const std::string json = manifest.to_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"lambda_trace\""), std::string::npos);
  EXPECT_NE(json.find("ECO_OBS_TEST_UNSET_VAR"), std::string::npos);

  const std::string path = "obs_test_manifest.json";
  ASSERT_TRUE(manifest.write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back;
  char buf[512];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) read_back.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read_back, json);
}

}  // namespace
}  // namespace eco::runtime
