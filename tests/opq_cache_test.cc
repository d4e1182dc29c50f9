#include "engine/opq_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "binmodel/profile_model.h"
#include "plan_signature.h"
#include "solver/opq_solver.h"
#include "solver/plan.h"

namespace slade {
namespace {

// Element for element: same LCM, unit cost bits and parts.
bool SameQueue(const OptimalPriorityQueue& a, const OptimalPriorityQueue& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.element(i).lcm() != b.element(i).lcm() ||
        a.element(i).unit_cost() != b.element(i).unit_cost() ||
        a.element(i).parts() != b.element(i).parts()) {
      return false;
    }
  }
  return true;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(OpqCacheTest, MissThenHit) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  auto first = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->hit);
  auto second = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(first->queue.get(), second->queue.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(OpqCacheTest, CachedQueueEqualsFreshBuild) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  for (double t : {0.8, 0.9, 0.95}) {
    auto cached = cache.GetOrBuild(profile, t);
    ASSERT_TRUE(cached.ok());
    auto fresh = BuildOpq(profile, t);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(cached->queue->size(), fresh->size());
    EXPECT_DOUBLE_EQ(cached->queue->theta(), fresh->theta());
    for (size_t i = 0; i < fresh->size(); ++i) {
      EXPECT_EQ(cached->queue->element(i).lcm(), fresh->element(i).lcm());
      EXPECT_DOUBLE_EQ(cached->queue->element(i).unit_cost(),
                       fresh->element(i).unit_cost());
    }
  }
}

TEST(OpqCacheTest, CachedQueueProducesSamePlanAsFreshBuild) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  auto cached = cache.GetOrBuild(profile, 0.92);
  ASSERT_TRUE(cached.ok());
  auto fresh = BuildOpq(profile, 0.92);
  ASSERT_TRUE(fresh.ok());

  std::vector<TaskId> ids(1234);
  std::iota(ids.begin(), ids.end(), 0);
  const TaskId* first = ids.data();
  const size_t n = ids.size();
  DecompositionPlan from_cache, from_fresh;
  ASSERT_TRUE(
      RunOpqAssignment(*cached->queue, first, n, profile, &from_cache).ok());
  ASSERT_TRUE(RunOpqAssignment(*fresh, first, n, profile, &from_fresh).ok());
  EXPECT_DOUBLE_EQ(from_cache.TotalCost(profile),
                   from_fresh.TotalCost(profile));
  EXPECT_EQ(from_cache.TotalBinInstances(), from_fresh.TotalBinInstances());
  EXPECT_EQ(from_cache.BinCounts(profile.max_cardinality()),
            from_fresh.BinCounts(profile.max_cardinality()));
}

TEST(OpqCacheTest, AggregatesBuildStatsAcrossMisses) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  OpqBuildStats direct_90, direct_95;
  ASSERT_TRUE(BuildOpq(profile, 0.90, {}, &direct_90).ok());
  ASSERT_TRUE(BuildOpq(profile, 0.95, {}, &direct_95).ok());

  ASSERT_TRUE(cache.GetOrBuild(profile, 0.90).ok());
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.95).ok());
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.90).ok());  // hit: no new build

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.build_stats.nodes_visited,
            direct_90.nodes_visited + direct_95.nodes_visited);
  EXPECT_EQ(stats.build_stats.insertions,
            direct_90.insertions + direct_95.insertions);
  EXPECT_GE(stats.build_seconds, 0.0);

  // ResetStats zeroes the build aggregates; entries stay resident.
  cache.ResetStats();
  stats = cache.stats();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.build_stats.nodes_visited, 0u);
  EXPECT_EQ(cache.size(), 2u);

  // Clear keeps lifetime counters: a rebuild after Clear accumulates on
  // top of whatever ResetStats left.
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.90).ok());  // still a hit
  EXPECT_EQ(cache.stats().builds, 0u);
  cache.Clear();
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.90).ok());  // rebuild
  stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.build_stats.nodes_visited, direct_90.nodes_visited);
}

TEST(OpqCacheTest, DistinctProfilesGetDistinctEntries) {
  OpqCache cache;
  auto jelly = BuildProfile(JellyModel(), 10);
  auto smic = BuildProfile(SmicModel(), 10);
  ASSERT_TRUE(jelly.ok() && smic.ok());
  EXPECT_NE(OpqCache::ProfileFingerprint(*jelly),
            OpqCache::ProfileFingerprint(*smic));
  ASSERT_TRUE(cache.GetOrBuild(*jelly, 0.9).ok());
  ASSERT_TRUE(cache.GetOrBuild(*smic, 0.9).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(OpqCacheTest, InvalidThresholdErrorIsMemoized) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  auto first = cache.GetOrBuild(profile, 1.5);
  EXPECT_FALSE(first.ok());
  auto second = cache.GetOrBuild(profile, 1.5);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(first.status().code(), second.status().code());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OpqCacheTest, ConcurrentLookupsBuildOnce) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const OptimalPriorityQueue>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &profile, &seen, i] {
      auto lookup = cache.GetOrBuild(profile, 0.9);
      if (lookup.ok()) seen[i] = lookup->queue;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(OpqCacheTest, ClearDropsEntriesButKeepsLifetimeCounters) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  auto lookup = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(lookup.ok());
  auto held = lookup->queue;
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.9).ok());  // one hit on record
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  // Clearing entries must not rewrite history: a long-running server
  // clearing its cache keeps honest cumulative hit/miss counters.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(held->size(), 0u);  // still usable after Clear
  auto rebuilt = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->hit);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(OpqCacheTest, ResetStatsZeroesCountersButKeepsEntries) {
  OpqCache cache;
  auto profile = BinProfile::PaperExample();
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.9).ok());
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.9).ok());
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  auto lookup = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);  // the entry itself survived
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(OpqCacheTest, FingerprintCollisionsGetDistinctChainedEntries) {
  // fingerprint_mask = 0 keys every profile to fingerprint 0, so two
  // structurally different profiles collide by construction and must be
  // told apart by the structural-equality guard.
  OpqCacheOptions options;
  options.fingerprint_mask = 0;
  OpqCache cache(options);
  auto jelly = BuildProfile(JellyModel(), 6);
  auto smic = BuildProfile(SmicModel(), 6);
  ASSERT_TRUE(jelly.ok() && smic.ok());

  auto first = cache.GetOrBuild(*jelly, 0.9);
  auto second = cache.GetOrBuild(*smic, 0.9);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(first->queue.get(), second->queue.get());
  EXPECT_FALSE(second->hit);  // the collision built its own entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().collisions, 1u);

  // Each chained entry answers for exactly its own profile.
  auto expect_matches_fresh = [](const OpqCache::Lookup& cached,
                                 const BinProfile& profile) {
    auto fresh = BuildOpq(profile, 0.9);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(cached.queue->size(), fresh->size());
    for (size_t i = 0; i < fresh->size(); ++i) {
      EXPECT_EQ(cached.queue->element(i).lcm(), fresh->element(i).lcm());
      EXPECT_DOUBLE_EQ(cached.queue->element(i).unit_cost(),
                       fresh->element(i).unit_cost());
    }
  };
  expect_matches_fresh(*first, *jelly);
  expect_matches_fresh(*second, *smic);

  // Re-requests hit the right entry of the chain.
  auto again = cache.GetOrBuild(*jelly, 0.9);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->hit);
  EXPECT_EQ(again->queue.get(), first->queue.get());
}

TEST(OpqCacheTest, EntryCapacityEvictsLeastRecentlyUsed) {
  OpqCacheOptions options;
  options.max_entries = 2;
  options.num_shards = 1;  // single shard so LRU order is global
  OpqCache cache(options);
  auto profile = BinProfile::PaperExample();
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.80).ok());  // A
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.90).ok());  // B
  auto touch = cache.GetOrBuild(profile, 0.80);       // touch A: B is LRU
  ASSERT_TRUE(touch.ok());
  EXPECT_TRUE(touch->hit);
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.95).ok());  // C evicts B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  auto a = cache.GetOrBuild(profile, 0.80);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->hit);  // A survived
  auto b = cache.GetOrBuild(profile, 0.90);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->hit);  // B was evicted and rebuilt
  EXPECT_EQ(cache.size(), 2u);
}

TEST(OpqCacheTest, ByteCapacityBoundsResidentBytes) {
  auto profile = BinProfile::PaperExample();
  // Measure one entry's charge with an unbounded probe cache, then budget
  // roughly two and a half entries.
  OpqCache probe;
  ASSERT_TRUE(probe.GetOrBuild(profile, 0.9).ok());
  const uint64_t one_entry = probe.stats().bytes;
  ASSERT_GT(one_entry, 0u);

  OpqCacheOptions options;
  options.max_bytes = one_entry * 5 / 2;
  options.num_shards = 1;
  OpqCache cache(options);
  for (double t : {0.80, 0.85, 0.90, 0.92, 0.95}) {
    ASSERT_TRUE(cache.GetOrBuild(profile, t).ok());
  }
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_LE(stats.peak_bytes, options.max_bytes + one_entry * 2);
}

TEST(OpqCacheTest, EvictedQueueStaysValidForHolderAndRebuildsForRacers) {
  OpqCacheOptions options;
  options.max_entries = 1;
  OpqCache cache(options);
  auto profile = BinProfile::PaperExample();
  auto held = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(held.ok());
  auto queue = held->queue;
  ASSERT_TRUE(cache.GetOrBuild(profile, 0.8).ok());  // evicts the 0.9 entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The holder's queue is untouched by the eviction (shared_ptr contract):
  // an in-flight solve keeps working off it.
  std::vector<TaskId> ids(100);
  std::iota(ids.begin(), ids.end(), 0);
  DecompositionPlan plan;
  ASSERT_TRUE(
      RunOpqAssignment(*queue, ids.data(), ids.size(), profile, &plan).ok());
  EXPECT_GT(plan.TotalBinInstances(), 0u);

  // A racer re-requesting the evicted key rebuilds a fresh, equal entry.
  auto rebuilt = cache.GetOrBuild(profile, 0.9);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->hit);
  EXPECT_NE(rebuilt->queue.get(), queue.get());
  ASSERT_EQ(rebuilt->queue->size(), queue->size());
  for (size_t i = 0; i < queue->size(); ++i) {
    EXPECT_EQ(rebuilt->queue->element(i).lcm(), queue->element(i).lcm());
  }
}

TEST(OpqCacheTest, ConcurrentLookupsUnderTinyCapacityStayConsistent) {
  // Threads hammer overlapping keys against a 2-entry cache, so builds,
  // hits and evictions race constantly. Every lookup must still return a
  // usable queue whose interval holds its own key and which equals a fresh
  // build at its own threshold. This is the ASan/TSan payload for eviction
  // racing an in-flight build.
  OpqCacheOptions options;
  options.max_entries = 2;
  OpqCache cache(options);
  auto profile = BinProfile::PaperExample();
  const double thresholds[] = {0.80, 0.85, 0.90, 0.92, 0.95};
  std::vector<OptimalPriorityQueue> fresh;
  for (double t : thresholds) {
    fresh.push_back(BuildOpq(profile, t).ValueOrDie());
  }
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &profile, &thresholds, &fresh, &failures,
                          i] {
      for (int iter = 0; iter < kIters; ++iter) {
        const int which = (i * 7 + iter) % 5;
        const double t = thresholds[which];
        auto lookup = cache.GetOrBuild(profile, t);
        if (!lookup.ok() || lookup->queue == nullptr ||
            !lookup->queue->key_interval().Contains(OpqDecisionKey(t)) ||
            !SameQueue(*lookup->queue, fresh[which]) ||
            lookup->queue->elements().back().lcm() != 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(OpqCacheTest, ShardedCacheAggregatesAcrossShards) {
  OpqCacheOptions options;
  options.num_shards = 4;
  OpqCache cache(options);
  auto profile = BinProfile::PaperExample();
  // Five thresholds in five key intervals (0.97's key, 3.507, lies above
  // the interval (2.3026, 3.2189] that 0.92 opens).
  const double thresholds[] = {0.80, 0.85, 0.90, 0.92, 0.97};
  for (double t : thresholds) ASSERT_TRUE(cache.GetOrBuild(profile, t).ok());
  for (double t : thresholds) {
    auto lookup = cache.GetOrBuild(profile, t);
    ASSERT_TRUE(lookup.ok());
    EXPECT_TRUE(lookup->hit);
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.hits(), 5u);
  EXPECT_EQ(cache.misses(), 5u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 5u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.peak_bytes, stats.bytes);  // nothing was evicted

  // No node's log-weight lies between the keys of 0.92 and 0.95, so both
  // build {2 x b3} {2 x b2} {2 x b1} and share one entry.
  auto at_92 = cache.GetOrBuild(profile, 0.92);
  auto at_95 = cache.GetOrBuild(profile, 0.95);
  ASSERT_TRUE(at_92.ok() && at_95.ok());
  EXPECT_TRUE(at_95->hit);
  EXPECT_EQ(at_95->queue.get(), at_92->queue.get());
  EXPECT_EQ(cache.size(), 5u);
}

TEST(OpqCacheTest, ContinuousThresholdsHoldOneEntryPerInterval) {
  // 20,000 continuous thresholds, as serving traffic submits them: the
  // cache holds exactly one entry per distinct key interval, every lookup
  // returns the queue a fresh build at its own threshold returns, and the
  // plans Algorithm 3 makes from the two are bit-identical.
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  OpqCache cache;
  std::mt19937_64 rng(20261020);
  std::normal_distribution<double> normal(0.9, 0.03);
  std::set<std::pair<uint64_t, uint64_t>> intervals;
  std::vector<TaskId> ids(60);
  std::iota(ids.begin(), ids.end(), 0);
  constexpr int kLookups = 20000;
  for (int i = 0; i < kLookups; ++i) {
    const double t = std::clamp(normal(rng), 0.5, 0.995);
    auto cached = cache.GetOrBuild(profile, t);
    auto fresh = BuildOpq(profile, t);
    ASSERT_TRUE(cached.ok() && fresh.ok());
    ASSERT_TRUE(SameQueue(*cached->queue, *fresh)) << "t=" << t;
    intervals.emplace(Bits(fresh->key_interval().lo),
                      Bits(fresh->key_interval().hi));

    const size_t n = 10 + static_cast<size_t>(i % 51);
    DecompositionPlan from_cache, from_fresh;
    ASSERT_TRUE(RunOpqAssignment(*cached->queue, ids.data(), n, profile,
                                 &from_cache)
                    .ok());
    ASSERT_TRUE(
        RunOpqAssignment(*fresh, ids.data(), n, profile, &from_fresh).ok());
    ASSERT_EQ(PlanSignature(from_cache), PlanSignature(from_fresh))
        << "t=" << t;
    ASSERT_EQ(Bits(from_cache.TotalCost(profile)),
              Bits(from_fresh.TotalCost(profile)))
        << "t=" << t;
  }
  EXPECT_EQ(cache.size(), intervals.size());
  EXPECT_EQ(cache.misses(), intervals.size());
  EXPECT_EQ(cache.hits(), kLookups - intervals.size());
  EXPECT_LT(intervals.size(), 100u);
}

}  // namespace
}  // namespace slade
