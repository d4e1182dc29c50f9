#include "engine/decomposition_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include "binmodel/profile_model.h"
#include "plan_signature.h"
#include "solver/opq_solver.h"
#include "solver/plan_validator.h"
#include "workload/workload.h"

namespace slade {
namespace {

BatchWorkload SmallHeterogeneousBatch(size_t num_tasks = 40,
                                      size_t atomic_per_task = 25) {
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;
  auto batch = MakeBatchWorkload(DatasetKind::kJelly, num_tasks,
                                 atomic_per_task, spec, 10,
                                 ExperimentDefaults::kSeed);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return std::move(batch).ValueOrDie();
}

TEST(DecompositionEngineTest, EmptyBatchIsRejected) {
  DecompositionEngine engine;
  auto profile = BinProfile::PaperExample();
  auto report = engine.SolveBatch({}, profile);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(DecompositionEngineTest, MergedPlanIsFeasible) {
  BatchWorkload batch = SmallHeterogeneousBatch();
  DecompositionEngine engine;
  auto report = engine.SolveBatch(batch.tasks, batch.profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto merged_task = ConcatenateTasks(batch.tasks);
  ASSERT_TRUE(merged_task.ok());
  ASSERT_EQ(merged_task->size(), report->num_atomic_tasks());
  auto validation = ValidatePlan(report->plan, *merged_task, batch.profile);
  ASSERT_TRUE(validation.ok()) << validation.status().ToString();
  EXPECT_TRUE(validation->feasible)
      << "worst log margin " << validation->worst_log_margin;
  EXPECT_NEAR(validation->total_cost, report->total_cost, 1e-6);
  EXPECT_EQ(report->plan.TotalBinInstances(), report->total_bins);
}

TEST(DecompositionEngineTest, DeterministicAcrossThreadCounts) {
  BatchWorkload batch = SmallHeterogeneousBatch();
  std::string reference_sig;
  double reference_cost = 0.0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    EngineOptions options;
    options.num_threads = threads;
    DecompositionEngine engine(options);
    auto report = engine.SolveBatch(batch.tasks, batch.profile);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (threads == 1) {
      reference_sig = PlanSignature(report->plan);
      reference_cost = report->total_cost;
      continue;
    }
    EXPECT_EQ(PlanSignature(report->plan), reference_sig)
        << "plan differs at " << threads << " threads";
    EXPECT_DOUBLE_EQ(report->total_cost, reference_cost);
  }
}

TEST(DecompositionEngineTest, RepeatedBatchHitsTheCache) {
  BatchWorkload batch = SmallHeterogeneousBatch();
  DecompositionEngine engine;
  auto first = engine.SolveBatch(batch.tasks, batch.profile);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->opq_cache_hits, 0u);
  EXPECT_EQ(first->opq_cache_misses, first->shards.size());

  auto second = engine.SolveBatch(batch.tasks, batch.profile);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->opq_cache_hits, second->shards.size());
  EXPECT_EQ(second->opq_cache_misses, 0u);
  EXPECT_EQ(PlanSignature(second->plan), PlanSignature(first->plan));
}

TEST(DecompositionEngineTest,
     SingleHomogeneousTaskMatchesOpqSolverCost) {
  auto profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(1000, 0.9);
  ASSERT_TRUE(task.ok());

  OpqSolver solver;
  auto direct = solver.Solve(*task, profile);
  ASSERT_TRUE(direct.ok());

  DecompositionEngine engine;
  auto report = engine.SolveBatch({*task}, profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 1u);
  EXPECT_NEAR(report->total_cost, direct->TotalCost(profile), 1e-9);
}

TEST(DecompositionEngineTest, SequentialReferenceAgreesOnFeasibility) {
  BatchWorkload batch = SmallHeterogeneousBatch(10, 30);
  auto sequential = SolveBatchSequential(batch.tasks, batch.profile);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  auto merged_task = ConcatenateTasks(batch.tasks);
  ASSERT_TRUE(merged_task.ok());
  auto validation =
      ValidatePlan(sequential->plan, *merged_task, batch.profile);
  ASSERT_TRUE(validation.ok()) << validation.status().ToString();
  EXPECT_TRUE(validation->feasible);
  EXPECT_NEAR(validation->total_cost, sequential->total_cost, 1e-6);

  // The engine's batch-wide sharding pays the leftover padding once per
  // shard instead of once per task, so it never does meaningfully worse.
  DecompositionEngine engine;
  auto batched = engine.SolveBatch(batch.tasks, batch.profile);
  ASSERT_TRUE(batched.ok());
  EXPECT_LE(batched->total_cost, sequential->total_cost * 1.01);
}

TEST(DecompositionEngineTest, IsolatedModeMatchesSequentialReference) {
  // kIsolated shards each input task by its own Algorithm 4 partition, so
  // the merged plan must equal the sequential per-task reference loop
  // placement for placement -- this is the identity the streaming engine's
  // per-requester guarantee is built on.
  BatchWorkload batch = SmallHeterogeneousBatch(20, 15);
  auto sequential = SolveBatchSequential(batch.tasks, batch.profile);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  EngineOptions options;
  options.sharing = BatchSharing::kIsolated;
  DecompositionEngine engine(options);
  auto report = engine.SolveBatch(batch.tasks, batch.profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(PlanSignature(report->plan), PlanSignature(sequential->plan));
  EXPECT_NEAR(report->total_cost, sequential->total_cost,
              1e-9 * (1.0 + sequential->total_cost));
  EXPECT_EQ(report->total_bins, sequential->total_bins);
  EXPECT_EQ(report->task_offsets, sequential->task_offsets);

  // Every shard is owned by exactly one input task, in ascending order.
  size_t last_task = 0;
  for (const ShardStats& shard : report->shards) {
    ASSERT_NE(shard.input_task, ShardStats::kWholeBatch);
    EXPECT_GE(shard.input_task, last_task);
    EXPECT_LT(shard.input_task, batch.tasks.size());
    last_task = shard.input_task;
  }
}

TEST(DecompositionEngineTest, IsolatedModeDeterministicAcrossThreadCounts) {
  BatchWorkload batch = SmallHeterogeneousBatch(12, 20);
  std::string reference_sig;
  for (uint32_t threads : {1u, 4u, 8u}) {
    EngineOptions options;
    options.num_threads = threads;
    options.sharing = BatchSharing::kIsolated;
    DecompositionEngine engine(options);
    auto report = engine.SolveBatch(batch.tasks, batch.profile);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (threads == 1) {
      reference_sig = PlanSignature(report->plan);
      continue;
    }
    EXPECT_EQ(PlanSignature(report->plan), reference_sig)
        << "plan differs at " << threads << " threads";
  }
}

TEST(DecompositionEngineTest, IsolatedModeStillSharesTheOpqCache) {
  // Input tasks with the same threshold land in the same Algorithm 4
  // interval, so isolation changes bin sharing, not cache sharing: the
  // second identical input task's shard must hit the cache.
  auto profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(50, 0.9);
  ASSERT_TRUE(task.ok());

  EngineOptions options;
  options.sharing = BatchSharing::kIsolated;
  DecompositionEngine engine(options);
  auto report = engine.SolveBatch({*task, *task, *task}, profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 3u);
  EXPECT_EQ(report->opq_cache_misses, 1u);
  EXPECT_EQ(report->opq_cache_hits, 2u);
}

TEST(DecompositionEngineTest, WarmIntervalCacheSolvesLikeAFreshCache) {
  // Serving-tape-like batches: 1-3 tasks of 10-30 atomic tasks each, with
  // thresholds N(0.9, 0.03) clamped to [0.5, 0.995] at six decimals, so
  // almost every top surrogate threshold is new. One engine solves them all
  // on a warm cache, whose entries each answer a whole key interval; every
  // plan and the bits of every total cost must equal those of a fresh
  // engine per batch, and the plan the sequential reference loop makes.
  const BinProfile profile =
      BuildProfile(MakeModel(DatasetKind::kJelly), 10).ValueOrDie();
  EngineOptions options;
  options.num_threads = 2;
  options.sharing = BatchSharing::kIsolated;
  DecompositionEngine warm(options);
  std::mt19937_64 rng(4242);
  std::normal_distribution<double> normal(0.9, 0.03);
  for (int b = 0; b < 300; ++b) {
    std::vector<CrowdsourcingTask> tasks;
    for (int k = 0; k < 1 + b % 3; ++k) {
      std::vector<double> thresholds(10 + (b * 7 + k * 3) % 21);
      for (double& t : thresholds) {
        t = std::round(std::clamp(normal(rng), 0.5, 0.995) * 1e6) / 1e6;
      }
      tasks.push_back(
          CrowdsourcingTask::FromThresholds(std::move(thresholds))
              .ValueOrDie());
    }
    auto shared = warm.SolveBatch(tasks, profile);
    DecompositionEngine fresh_engine(options);
    auto fresh = fresh_engine.SolveBatch(tasks, profile);
    auto sequential = SolveBatchSequential(tasks, profile);
    ASSERT_TRUE(shared.ok() && fresh.ok() && sequential.ok());
    const std::string signature = PlanSignature(shared->plan);
    EXPECT_EQ(signature, PlanSignature(fresh->plan)) << "batch " << b;
    EXPECT_EQ(signature, PlanSignature(sequential->plan)) << "batch " << b;
    uint64_t shared_bits = 0, fresh_bits = 0;
    std::memcpy(&shared_bits, &shared->total_cost, sizeof(shared_bits));
    std::memcpy(&fresh_bits, &fresh->total_cost, sizeof(fresh_bits));
    EXPECT_EQ(shared_bits, fresh_bits) << "batch " << b;
  }
  const CacheStats stats = warm.cache().stats();
  EXPECT_LT(stats.entries, 100u);  // bounded by the profile, not the tape
  EXPECT_GT(stats.hit_rate(), 0.9);
}

TEST(ConcatenateTasksTest, PreservesOrderAndThresholds) {
  auto a = CrowdsourcingTask::FromThresholds({0.8, 0.9});
  auto b = CrowdsourcingTask::FromThresholds({0.7});
  ASSERT_TRUE(a.ok() && b.ok());
  auto merged = ConcatenateTasks({*a, *b});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), 3u);
  EXPECT_DOUBLE_EQ(merged->threshold(0), 0.8);
  EXPECT_DOUBLE_EQ(merged->threshold(1), 0.9);
  EXPECT_DOUBLE_EQ(merged->threshold(2), 0.7);
  EXPECT_FALSE(ConcatenateTasks({}).ok());
}

}  // namespace
}  // namespace slade
