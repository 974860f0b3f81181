// Scheduler tests: SmallTask storage, the Chase-Lev WorkDeque, the
// CompletionLatch window events, the work-stealing ThreadPool, and the
// bitwise determinism of the pipeline across every scheduling toggle
// ({steal on/off} x {window pipelining on/off} x worker counts x shard
// counts). The scheduler may change WHERE and WHEN work runs — never what
// the merged reports contain.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "gating/learned_gate.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"

namespace eco::runtime {
namespace {

const core::EcoFusionEngine& engine() {
  static core::EcoFusionEngine instance;
  return instance;
}

// A Deep gate pulls the stem features F, so these runs put the stems and
// gate inference on every frame task.
GateFactory deep_factory() {
  return [] {
    gating::LearnedGateConfig config;
    config.num_configs = engine().config_space().size();
    return std::make_unique<gating::LearnedGate>(config);
  };
}

ShardGateFactory sharded_deep_factory() {
  return [](const core::EcoFusionEngine& shard_engine) {
    gating::LearnedGateConfig config;
    config.num_configs = shard_engine.config_space().size();
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

PipelineReport run_pipeline(std::size_t workers, bool steal,
                            bool pipelined) {
  PipelineConfig config;
  config.workers = workers;
  config.window = 16;
  config.steal = steal;
  config.pipeline_windows = pipelined;
  const StreamingPipeline pipeline(engine(), config);
  FrameStream stream(small_stream());
  return pipeline.run(stream, deep_factory());
}

ShardedReport run_sharded(std::size_t shards, std::size_t workers,
                          bool steal, bool pipelined) {
  ShardedConfig config;
  config.shards = shards;
  config.pipeline.workers = workers;
  config.pipeline.window = 16;
  config.pipeline.steal = steal;
  config.pipeline.pipeline_windows = pipelined;
  const ShardedPipeline pipeline(config);
  return pipeline.run(small_stream(), sharded_deep_factory());
}

/// Bitwise equality of everything the determinism contract covers. Alloc
/// ATTRIBUTION (per-frame tensor_allocs, zero_alloc_frames) is deliberately
/// not pinned here: a Deep gate lazily allocates its buffers on first use,
/// and frame tasks bind to per-WORKER gate instances, so which frame
/// absorbs a gate's warm-up depends on scheduling. arena_test pins alloc
/// invariance with a non-allocating gate, where the 2x ping-ponged slot
/// topology makes the counters a pure function of stream order.
void expect_reports_identical(const PipelineReport& a,
                              const PipelineReport& b) {
  ASSERT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.total_detections, b.total_detections);
  EXPECT_EQ(a.final_lambda, b.final_lambda);
  EXPECT_EQ(a.final_lambda_latency, b.final_lambda_latency);
  ASSERT_EQ(a.frame_stats.size(), b.frame_stats.size());
  for (std::size_t i = 0; i < a.frame_stats.size(); ++i) {
    const FrameStats& x = a.frame_stats[i];
    const FrameStats& y = b.frame_stats[i];
    EXPECT_EQ(x.stream_index, y.stream_index);
    EXPECT_EQ(x.scene, y.scene);
    EXPECT_EQ(x.config_index, y.config_index);
    EXPECT_EQ(x.loss, y.loss);              // bitwise
    EXPECT_EQ(x.energy_j, y.energy_j);      // bitwise
    EXPECT_EQ(x.latency_ms, y.latency_ms);  // bitwise
    EXPECT_EQ(x.lambda_energy, y.lambda_energy);
    EXPECT_EQ(x.lambda_latency, y.lambda_latency);
    EXPECT_EQ(x.detections, y.detections);
    EXPECT_EQ(x.stem_source, y.stem_source);
    EXPECT_EQ(x.branch_runs, y.branch_runs);
    EXPECT_EQ(x.channel_scans_requested, y.channel_scans_requested);
    EXPECT_EQ(x.channel_scans_unique, y.channel_scans_unique);
    EXPECT_EQ(x.arena_bytes_high_water, y.arena_bytes_high_water);
  }
  EXPECT_EQ(a.exec.branch_runs, b.exec.branch_runs);
  EXPECT_EQ(a.exec.channel_scans_requested, b.exec.channel_scans_requested);
  EXPECT_EQ(a.exec.channel_scans_unique, b.exec.channel_scans_unique);
  EXPECT_EQ(a.exec.stems_skipped, b.exec.stems_skipped);
  EXPECT_EQ(a.exec.stems_computed, b.exec.stems_computed);
  EXPECT_EQ(a.exec.stem_cache_hits, b.exec.stem_cache_hits);
  EXPECT_EQ(a.exec.stem_cache_misses, b.exec.stem_cache_misses);
  EXPECT_EQ(a.exec.arena_bytes_high_water, b.exec.arena_bytes_high_water);
}

// ---------------------------------------------------------------------------
// SmallTask
// ---------------------------------------------------------------------------

TEST(SmallTaskTest, SmallCapturesStayInline) {
  int value = 0;
  int* target = &value;
  SmallTask task([target](std::size_t worker) {
    *target = static_cast<int>(worker) + 1;
  });
  EXPECT_TRUE(static_cast<bool>(task));
  EXPECT_FALSE(task.heap_allocated());
  task(4);
  EXPECT_EQ(value, 5);
}

TEST(SmallTaskTest, FatCapturesFallBackToHeap) {
  std::array<char, SmallTask::kInlineBytes + 32> fat{};
  fat[0] = 7;
  int result = 0;
  int* out = &result;
  SmallTask task([fat, out](std::size_t) { *out = fat[0]; });
  EXPECT_TRUE(task.heap_allocated());
  task(0);
  EXPECT_EQ(result, 7);
}

TEST(SmallTaskTest, MoveTransfersTheCallable) {
  int calls = 0;
  int* counter = &calls;
  SmallTask a([counter](std::size_t) { ++*counter; });
  SmallTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b(0);
  SmallTask c;
  c = std::move(b);
  c(0);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------------
// WorkDeque
// ---------------------------------------------------------------------------

WorkDeque::Item make_item(std::vector<int>& order, int tag) {
  std::vector<int>* sink = &order;
  return WorkDeque::Item{
      SmallTask([sink, tag](std::size_t) { sink->push_back(tag); }), nullptr};
}

TEST(WorkDequeTest, OwnerPopsLifoThievesStealFifo) {
  WorkDeque deque(8);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(deque.push(make_item(order, i)));
  }
  WorkDeque::Item item;
  ASSERT_TRUE(deque.pop(item));  // LIFO: most recent first
  item.task(0);
  ASSERT_TRUE(deque.steal(item));  // FIFO: oldest first
  item.task(0);
  ASSERT_TRUE(deque.steal(item));
  item.task(0);
  ASSERT_TRUE(deque.pop(item));
  item.task(0);
  EXPECT_FALSE(deque.pop(item));
  EXPECT_FALSE(deque.steal(item));
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2}));
}

TEST(WorkDequeTest, PushReportsFullAtCapacity) {
  WorkDeque deque(4);
  EXPECT_EQ(deque.capacity(), 4u);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(deque.push(make_item(order, i)));
  }
  EXPECT_FALSE(deque.push(make_item(order, 99)));
  WorkDeque::Item item;
  ASSERT_TRUE(deque.pop(item));
  EXPECT_TRUE(deque.push(make_item(order, 4)));  // slot freed, reusable
}

TEST(WorkDequeTest, ConcurrentOwnerAndThievesConserveEveryTask) {
  constexpr std::size_t kTasks = 4096;
  constexpr std::size_t kThieves = 3;
  WorkDeque deque(256);
  std::unique_ptr<std::atomic<int>[]> seen(new std::atomic<int>[kTasks]());
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (std::size_t t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      WorkDeque::Item item;
      while (!done.load(std::memory_order_acquire) || !deque.empty()) {
        if (deque.steal(item)) item.task(1);
      }
    });
  }

  // Owner: push everything, popping (and running) locally whenever the ring
  // is full, then drain the leftovers — exactly the worker fast path.
  std::atomic<int>* slots = seen.get();
  std::size_t next = 0;
  WorkDeque::Item item;
  while (next < kTasks) {
    const std::size_t i = next;
    WorkDeque::Item candidate{SmallTask([slots, i](std::size_t) {
                                slots[i].fetch_add(
                                    1, std::memory_order_relaxed);
                              }),
                              nullptr};
    if (deque.push(std::move(candidate))) {
      ++next;
    } else if (deque.pop(item)) {
      item.task(0);
    }
  }
  while (deque.pop(item)) item.task(0);
  done.store(true, std::memory_order_release);
  for (std::thread& thief : thieves) thief.join();

  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "task " << i;
  }
}

// ---------------------------------------------------------------------------
// CompletionLatch
// ---------------------------------------------------------------------------

TEST(CompletionLatchTest, WaitsForEveryCountdownAndIsReusable) {
  CompletionLatch latch;
  latch.wait();  // default-constructed latch is released
  latch.reset(3);
  EXPECT_FALSE(latch.ready());
  std::thread releaser([&latch] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      latch.count_down();
    }
  });
  latch.wait();
  EXPECT_TRUE(latch.ready());
  releaser.join();
  latch.reset(1);
  EXPECT_FALSE(latch.ready());
  latch.count_down();
  latch.wait();
}

// ---------------------------------------------------------------------------
// ThreadPool scheduling
// ---------------------------------------------------------------------------

TEST(ThreadPoolSchedulerTest, SteadyStateSubmissionNeverTouchesTheHeap) {
  ThreadPoolConfig config;
  config.workers = 2;
  ThreadPool pool(config);
  std::atomic<int> count{0};
  for (int i = 0; i < 256; ++i) {
    pool.submit([&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 256);
  SchedulerStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 256u);
  EXPECT_EQ(stats.tasks_inlined, 256u);
  EXPECT_EQ(stats.tasks_heap, 0u);

  // A deliberately fat capture is the one way to reach the heap path.
  std::array<char, SmallTask::kInlineBytes + 64> fat{};
  pool.submit([fat, &count](std::size_t) {
    count.fetch_add(static_cast<int>(fat.size()) != 0 ? 1 : 0,
                    std::memory_order_relaxed);
  });
  pool.wait_idle();
  EXPECT_EQ(pool.stats().tasks_heap, 1u);
}

TEST(ThreadPoolSchedulerTest, StealsRebalanceWorkOffABusyWorker) {
  ThreadPoolConfig config;
  config.workers = 2;
  config.steal = true;
  ThreadPool pool(config);
  constexpr int kChildren = 64;
  std::atomic<int> finished{0};
  pool.submit([&pool, &finished](std::size_t) {
    // The children land in THIS worker's deque, and this task then blocks
    // until they are all done — only the other worker's steals can make
    // progress, so steals are not just possible but required.
    for (int i = 0; i < kChildren; ++i) {
      pool.submit([&finished](std::size_t) {
        finished.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (finished.load(std::memory_order_relaxed) < kChildren) {
      std::this_thread::yield();
    }
  });
  pool.wait_idle();
  EXPECT_EQ(finished.load(), kChildren);
  EXPECT_GE(pool.stats().steals, static_cast<std::uint64_t>(kChildren));
}

TEST(ThreadPoolSchedulerTest, StealOffExecutesEverythingWithoutSteals) {
  ThreadPoolConfig config;
  config.workers = 4;
  config.steal = false;
  ThreadPool pool(config);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
  EXPECT_FALSE(pool.stealing());
  EXPECT_EQ(pool.stats().steals, 0u);
}

// ---------------------------------------------------------------------------
// Pipeline determinism across every scheduling toggle
// ---------------------------------------------------------------------------

TEST(SchedulerDeterminismTest, TogglesAndWorkerCountsAreBitwiseInvariant) {
  const PipelineReport reference =
      run_pipeline(/*workers=*/1, /*steal=*/false, /*pipelined=*/false);
  ASSERT_GT(reference.frames, 0u);
  for (const bool steal : {false, true}) {
    for (const bool pipelined : {false, true}) {
      for (const std::size_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << "steal=" << steal << " pipelined=" << pipelined
                     << " workers=" << workers);
        const PipelineReport report = run_pipeline(workers, steal, pipelined);
        expect_reports_identical(reference, report);
        // Pipelining is observable ONLY in the scheduler counters.
        if (pipelined) {
          EXPECT_GT(report.scheduler.windows_pipelined, 0u);
        } else {
          EXPECT_EQ(report.scheduler.windows_pipelined, 0u);
        }
      }
    }
  }
}

TEST(SchedulerDeterminismTest, ShardedMergesAreToggleInvariant) {
  for (const std::size_t shards : {1u, 2u}) {
    const ShardedReport reference =
        run_sharded(shards, /*workers=*/2, /*steal=*/false,
                    /*pipelined=*/false);
    for (const bool steal : {false, true}) {
      for (const bool pipelined : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                          << " steal=" << steal
                                          << " pipelined=" << pipelined);
        const ShardedReport report =
            run_sharded(shards, /*workers=*/2, steal, pipelined);
        expect_reports_identical(reference.merged, report.merged);
      }
    }
  }
}

TEST(SchedulerDeterminismTest, PipelineSubmissionsAreAllInline) {
  const PipelineReport report =
      run_pipeline(/*workers=*/4, /*steal=*/true, /*pipelined=*/true);
  // One task per frame, plus one generation task per stream sequence.
  EXPECT_EQ(report.scheduler.tasks_executed,
            report.frames + dataset::kNumSceneTypes);
  EXPECT_EQ(report.scheduler.tasks_heap, 0u);
  EXPECT_EQ(report.scheduler.tasks_inlined, report.scheduler.tasks_executed);
}

TEST(SchedulerDeterminismTest, ControllersForceSequentialWindows) {
  PipelineConfig config;
  config.workers = 2;
  config.window = 16;
  config.budget = BudgetConfig{};
  const StreamingPipeline pipeline(engine(), config);
  FrameStream stream(small_stream());
  const PipelineReport report = pipeline.run(stream, deep_factory());
  // lambda(W+1) depends on window W's fold: a true serialisation, so the
  // pipeline must not overlap windows no matter the config default.
  EXPECT_EQ(report.scheduler.windows_pipelined, 0u);
}

// A worker stolen by the OS (or hogged by a rogue task) must slow the run
// down, never change it: steals drain the hogged worker's queue and the
// stream-order fold erases the rebalancing from the results.
TEST(SchedulerStressTest, HoggedWorkerDoesNotPerturbResults) {
  const PipelineReport baseline =
      run_pipeline(/*workers=*/4, /*steal=*/true, /*pipelined=*/true);

  ThreadPoolConfig pool_config;
  pool_config.workers = 4;
  ThreadPool pool(pool_config);
  std::atomic<bool> hold{true};
  pool.submit([&hold](std::size_t) {
    // Hog one worker for the whole pipeline run (released below).
    while (hold.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pool.submit([](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  });

  PipelineConfig config;
  config.workers = 4;
  config.window = 16;
  const StreamingPipeline pipeline(engine(), config);
  FrameStream stream(small_stream());
  const PipelineReport report = pipeline.run(stream, deep_factory(), pool);
  hold.store(false, std::memory_order_release);
  pool.wait_idle();

  expect_reports_identical(baseline, report);
}

}  // namespace
}  // namespace eco::runtime
