#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace eco::runtime {

ShardedPipeline::ShardedPipeline(ShardedConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ShardedPipeline: shards must be >= 1");
  }
  engines_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    engines_.push_back(
        std::make_unique<core::EcoFusionEngine>(config_.engine));
  }
}

ShardedReport ShardedPipeline::run(const StreamConfig& stream_config,
                                   const ShardGateFactory& make_gate) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t shards = config_.shards;

  // One work-stealing pool shared by every shard; each shard's pipeline
  // tracks its windows with private completion events, so one shard waiting
  // at a window boundary never stalls another shard's in-flight work — and
  // an idle worker steals across shards.
  ThreadPoolConfig pool_config;
  pool_config.workers = config_.pipeline.workers;
  pool_config.steal = config_.pipeline.steal;
  pool_config.trace =
      config_.pipeline.tracing && obs::installed_tracer() != nullptr;
  ThreadPool pool(pool_config);

  // Drive each shard on its own (lightweight) thread: the driver pulls the
  // shard's sub-stream, runs the window loop, and parks at that shard's
  // barriers while the other shards keep the pool busy. Driver failures
  // (gate factory, stream construction, pipeline errors) are captured and
  // rethrown after every driver joined, matching the unsharded run's
  // propagation semantics instead of std::terminate-ing the process.
  std::vector<PipelineReport> reports(shards);
  std::vector<std::exception_ptr> failures(shards);
  std::vector<std::thread> drivers;
  drivers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    drivers.emplace_back([this, s, shards, &stream_config, &make_gate, &pool,
                          &reports, &failures] {
      try {
        StreamConfig shard_stream = stream_config;
        shard_stream.shard_count = shards;
        shard_stream.shard_index = s;
        FrameStream stream(shard_stream);
        // Label this shard's spans and control slice with its index
        // (observability only; results are shard_index-independent).
        PipelineConfig shard_pipeline = config_.pipeline;
        shard_pipeline.shard_index = s;
        const StreamingPipeline pipeline(*engines_[s],
                                         std::move(shard_pipeline));
        const core::EcoFusionEngine& engine = *engines_[s];
        reports[s] = pipeline.run(
            stream, [&make_gate, &engine] { return make_gate(engine); }, pool);
      } catch (...) {
        failures[s] = std::current_exception();
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  ShardedReport result;

  // Preserve each shard's control outcome verbatim.
  result.shards.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ShardSlice slice;
    slice.shard_index = s;
    slice.frames = reports[s].frames;
    slice.lambda_trace = reports[s].lambda_trace;
    slice.deadline_trace = reports[s].deadline_trace;
    slice.final_lambda = reports[s].final_lambda;
    slice.final_lambda_latency = reports[s].final_lambda_latency;
    slice.exec = reports[s].exec;
    slice.wall_seconds = reports[s].wall_seconds;
    slice.frames_per_second = reports[s].frames_per_second;
    result.shards.push_back(std::move(slice));
  }

  // ---- Deterministic merge -------------------------------------------
  // Shard streams stamp global stream indices, so restoring the unsharded
  // order is a sort over disjoint index sets. frame_results rides along
  // under the same permutation, then the merged report runs through the
  // identical stream-order reduction the single pipeline uses.
  obs::ShardScope merge_scope(
      obs::kRunShard,
      config_.pipeline.tracing && obs::installed_tracer() != nullptr);
  obs::Span merge_span(obs::Stage::kShardMerge);
  merge_span.arg(static_cast<double>(shards));
  PipelineReport& merged = result.merged;
  std::size_t total_frames = 0;
  bool have_results = true;
  for (const PipelineReport& report : reports) {
    total_frames += report.frame_stats.size();
    if (report.frame_results.size() != report.frame_stats.size()) {
      have_results = false;
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> order;  // (shard, pos)
  order.reserve(total_frames);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < reports[s].frame_stats.size(); ++i) {
      order.emplace_back(s, i);
    }
  }
  std::sort(order.begin(), order.end(),
            [&reports](const auto& a, const auto& b) {
              return reports[a.first].frame_stats[a.second].stream_index <
                     reports[b.first].frame_stats[b.second].stream_index;
            });

  merged.frame_stats.reserve(total_frames);
  if (have_results) merged.frame_results.reserve(total_frames);
  for (const auto& [shard, pos] : order) {
    merged.frame_stats.push_back(reports[shard].frame_stats[pos]);
    if (have_results) {
      merged.frame_results.push_back(
          std::move(reports[shard].frame_results[pos]));
    }
  }
  finalize_report(merged);
  merge_span.arg(static_cast<double>(total_frames));

  // Carry every shard's control trajectory into the merged report (the old
  // telemetry gap: lambda/deadline traces used to survive only in the
  // ShardSlices, leaving the merged report blind to the control loops).
  // Slices concatenate in shard order; each shard's pipeline contributed
  // exactly one slice stamped with its shard_index.
  merged.control_slices.clear();
  for (std::size_t s = 0; s < shards; ++s) {
    for (const ControlSlice& slice : reports[s].control_slices) {
      merged.control_slices.push_back(slice);
    }
  }

  // Scheduler counters for the whole sharded run: the shared pool's view,
  // plus the driver-side fields each shard's pipeline accumulated. Like
  // wall_seconds, these are observability only — excluded from the bitwise
  // merge contract.
  pool.wait_idle();  // let the final tasks' bookkeeping tails retire
  merged.scheduler = pool.stats();
  for (const PipelineReport& report : reports) {
    merged.scheduler.barrier_wait_ns += report.scheduler.barrier_wait_ns;
    merged.scheduler.windows_pipelined += report.scheduler.windows_pipelined;
    merged.scheduler.ingest_blocked_pops += report.scheduler.ingest_blocked_pops;
    merged.scheduler.ingest_blocked_ns += report.scheduler.ingest_blocked_ns;
  }

  const auto wall_end = std::chrono::steady_clock::now();
  merged.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (merged.wall_seconds > 0.0) {
    merged.frames_per_second =
        static_cast<double>(merged.frames) / merged.wall_seconds;
  }
  return result;
}

}  // namespace eco::runtime
