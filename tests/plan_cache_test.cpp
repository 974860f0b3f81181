// The process-wide plan cache: build-once semantics, LRU eviction,
// hit/miss accounting, and the scan-plan sharing that motivates it — every
// scratch in the process must alias the same immutable ScanPlan object for
// the same (extent, config) key.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>

#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "tensor/plan_cache.hpp"

namespace eco {
namespace {

struct TestKey {
  int id = 0;
  friend bool operator==(const TestKey&, const TestKey&) = default;
};

struct TestPlan {
  int id = 0;
  std::string payload;
};

TestPlan build_plan(const TestKey& key) {
  return TestPlan{key.id, "plan-" + std::to_string(key.id)};
}

TEST(PlanCacheTest, BuildsOncePerKeyAndSharesTheInstance) {
  tensor::PlanCache<TestKey, TestPlan> cache(4);
  int builds = 0;
  const auto counted = [&builds](const TestKey& key) {
    ++builds;
    return build_plan(key);
  };
  const auto first = cache.get_or_build(TestKey{7}, counted);
  const auto second = cache.get_or_build(TestKey{7}, counted);
  EXPECT_EQ(builds, 1);
  // Identity, not just equality: both callers alias one immutable object.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(second->payload, "plan-7");

  const auto totals = cache.totals();
  EXPECT_EQ(totals.hits, 1u);
  EXPECT_EQ(totals.misses, 1u);
  EXPECT_EQ(totals.plans, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  tensor::PlanCache<TestKey, TestPlan> cache(2);
  int builds = 0;
  const auto counted = [&builds](const TestKey& key) {
    ++builds;
    return build_plan(key);
  };
  (void)cache.get_or_build(TestKey{1}, counted);
  (void)cache.get_or_build(TestKey{2}, counted);
  // Touch 1 so 2 becomes the LRU entry, then insert 3 to evict it.
  (void)cache.get_or_build(TestKey{1}, counted);
  (void)cache.get_or_build(TestKey{3}, counted);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(builds, 3);
  // 1 and 3 are resident (no rebuild); 2 was evicted (rebuilds).
  (void)cache.get_or_build(TestKey{1}, counted);
  (void)cache.get_or_build(TestKey{3}, counted);
  EXPECT_EQ(builds, 3);
  (void)cache.get_or_build(TestKey{2}, counted);
  EXPECT_EQ(builds, 4);
}

TEST(PlanCacheTest, EvictedPlansSurviveWhileReferenced) {
  tensor::PlanCache<TestKey, TestPlan> cache(1);
  const auto pinned = cache.get_or_build(TestKey{1}, build_plan);
  (void)cache.get_or_build(TestKey{2}, build_plan);  // evicts key 1
  EXPECT_EQ(cache.size(), 1u);
  // The shared_ptr keeps the evicted plan alive for its holder.
  EXPECT_EQ(pinned->payload, "plan-1");
}

TEST(PlanCacheTest, ThreadLocalCountersTrackHitsAndMisses) {
  tensor::PlanCache<TestKey, TestPlan> cache(4);
  const auto hits_before = tensor::plan_cache_hit_count();
  const auto misses_before = tensor::plan_cache_miss_count();
  (void)cache.get_or_build(TestKey{10}, build_plan);
  (void)cache.get_or_build(TestKey{10}, build_plan);
  (void)cache.get_or_build(TestKey{11}, build_plan);
  EXPECT_EQ(tensor::plan_cache_hit_count() - hits_before, 1u);
  EXPECT_EQ(tensor::plan_cache_miss_count() - misses_before, 2u);
}

TEST(ScanPlanCacheTest, ScratchesShareOnePlanInstancePerKey) {
  detect::RpnConfig config;
  config.backend = tensor::Backend::kReference;
  detect::ScanScratch a, b;
  const detect::ScanPlan& plan_a = a.plan_for(48, 48, config);
  const detect::ScanPlan& plan_b = b.plan_for(48, 48, config);
  // Same key from two scratches -> the identical shared object, not a
  // per-scratch copy (the whole point of the process-wide cache).
  EXPECT_EQ(&plan_a, &plan_b);
  EXPECT_FALSE(plan_a.anchors.empty());
  EXPECT_EQ(plan_a.anchors.size(), plan_a.geometry.size());

  // A different backend is a different key: backends run different code
  // paths, so plans must never alias across them.
  detect::RpnConfig simd_config = config;
  simd_config.backend = tensor::Backend::kSimd;
  const detect::ScanPlan& plan_simd = a.plan_for(48, 48, simd_config);
  EXPECT_NE(&plan_simd, &plan_b);

  // The scratch-local memo: repeating the last key returns the pinned plan
  // without consulting the global cache (no hit/miss movement).
  const auto hits_before = tensor::plan_cache_hit_count();
  const auto misses_before = tensor::plan_cache_miss_count();
  const detect::ScanPlan& again = a.plan_for(48, 48, simd_config);
  EXPECT_EQ(&again, &plan_simd);
  EXPECT_EQ(tensor::plan_cache_hit_count(), hits_before);
  EXPECT_EQ(tensor::plan_cache_miss_count(), misses_before);
}

TEST(ScanPlanCacheTest, PlanMatchesFreshBuild) {
  detect::ScanPlanKey key;
  key.height = 48;
  key.width = 48;
  const detect::ScanPlan fresh = detect::build_scan_plan(key);
  detect::ScanScratch scratch;
  const detect::ScanPlan& cached = scratch.plan_for(48, 48, key.config);
  ASSERT_EQ(cached.anchors.size(), fresh.anchors.size());
  ASSERT_EQ(cached.geometry.size(), fresh.geometry.size());
  for (std::size_t i = 0; i < fresh.anchors.size(); ++i) {
    EXPECT_EQ(cached.anchors[i].x1, fresh.anchors[i].x1);
    EXPECT_EQ(cached.anchors[i].y1, fresh.anchors[i].y1);
    EXPECT_EQ(cached.anchors[i].x2, fresh.anchors[i].x2);
    EXPECT_EQ(cached.anchors[i].y2, fresh.anchors[i].y2);
    EXPECT_EQ(cached.geometry[i].inner00, fresh.geometry[i].inner00);
    EXPECT_EQ(cached.geometry[i].ring11, fresh.geometry[i].ring11);
    EXPECT_EQ(cached.geometry[i].inner_area, fresh.geometry[i].inner_area);
    EXPECT_EQ(cached.geometry[i].ring_area, fresh.geometry[i].ring_area);
  }
}

TEST(ScanPlanCacheTest, StatsCountResidentPlans) {
  // Force at least one plan into the process-wide cache, then read stats.
  detect::ScanScratch scratch;
  (void)scratch.plan_for(48, 48, detect::RpnConfig{});
  const detect::ScanPlanCacheStats stats = detect::scan_plan_cache_stats();
  EXPECT_GT(stats.plans, 0u);
  EXPECT_GT(stats.misses, 0u);  // at least the builds this test forced
}

}  // namespace
}  // namespace eco
