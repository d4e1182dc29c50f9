// Randomized differential suite for the streaming admission engine.
//
// The contract under test: with BatchSharing::kIsolated, streaming
// admission is an *answer-preserving* transport. However submissions are
// interleaved across requesters, however micro-batches are cut (by size,
// by atomic-task count, by explicit drain), and however many worker
// threads solve the shards, each requester's reassembled plan must be
// placement-for-placement identical to solving that requester's tasks
// through the sequential per-task reference path (SolveBatchSequential,
// i.e. the paper's OPQ-Extended solver per crowdsourcing task) -- and must
// pass PlanValidator against the requester's thresholds.
//
// ~100 seeded random workloads vary the dataset model, profile size,
// requester count, submission interleaving, tasks per submission, atomic
// tasks per task and threshold distribution; flush policy and thread count
// rotate per workload, and one fixed workload is checked at 1, 4 and 8
// threads explicitly.

#include <cstdint>
#include <future>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"
#include "solver/plan_validator.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace slade {
namespace {

struct Submission {
  std::string requester;
  std::vector<CrowdsourcingTask> tasks;

  size_t num_atomic() const {
    size_t n = 0;
    for (const CrowdsourcingTask& t : tasks) n += t.size();
    return n;
  }
};

struct RandomWorkload {
  BinProfile profile;
  std::vector<Submission> submissions;
};

/// Deterministic random workload: dataset, profile size, requester count,
/// interleaving, task shapes and threshold family all derive from `seed`.
RandomWorkload MakeRandomWorkload(uint64_t seed) {
  std::mt19937_64 rng(seed);

  const DatasetKind dataset =
      (rng() % 2 == 0) ? DatasetKind::kJelly : DatasetKind::kSmic;
  const uint32_t max_cardinality = 4 + static_cast<uint32_t>(rng() % 9);
  auto profile = BuildProfile(MakeModel(dataset), max_cardinality);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();

  ThresholdSpec spec;
  switch (rng() % 4) {
    case 0:
      spec.family = ThresholdFamily::kHomogeneous;
      spec.mu = 0.75 + 0.2 * (static_cast<double>(rng() % 100) / 100.0);
      break;
    case 1:
      spec.family = ThresholdFamily::kNormal;
      spec.mu = 0.9;
      spec.sigma = 0.03;
      break;
    case 2:
      spec.family = ThresholdFamily::kUniform;
      spec.mu = 0.85;
      spec.sigma = 0.1;
      break;
    default:
      spec.family = ThresholdFamily::kHeavyTail;
      break;
  }
  spec.clamp_lo = 0.6;
  spec.clamp_hi = 0.98;

  const size_t num_requesters = 1 + rng() % 5;
  const size_t num_submissions = 2 + rng() % 11;
  RandomWorkload workload{std::move(profile).ValueOrDie(), {}};
  for (size_t s = 0; s < num_submissions; ++s) {
    Submission submission;
    submission.requester = "r" + std::to_string(rng() % num_requesters);
    const size_t num_tasks = 1 + rng() % 3;
    for (size_t k = 0; k < num_tasks; ++k) {
      const size_t n = 1 + rng() % 30;
      auto thresholds = GenerateThresholds(spec, n, rng());
      EXPECT_TRUE(thresholds.ok()) << thresholds.status().ToString();
      auto task =
          CrowdsourcingTask::FromThresholds(std::move(thresholds).ValueOrDie());
      EXPECT_TRUE(task.ok()) << task.status().ToString();
      submission.tasks.push_back(std::move(task).ValueOrDie());
    }
    workload.submissions.push_back(std::move(submission));
  }
  return workload;
}

/// The flush policies the suite rotates through. All are deterministic
/// given the submission sequence (deadline flushing is exercised by
/// streaming_stress_test, where timing may cut batches anywhere).
StreamingOptions PolicyOf(size_t index, uint32_t threads,
                          BatchSharing sharing) {
  StreamingOptions options;
  options.max_delay_seconds = 3600.0;  // policies below decide the cuts
  options.num_threads = threads;
  options.sharing = sharing;
  switch (index % 4) {
    case 0:  // flush eagerly (the worker may still batch a backlog)
      options.max_pending_submissions = 1;
      break;
    case 1:  // one big micro-batch, cut by the final drain
      options.max_pending_submissions = 1u << 20;
      options.max_pending_atomic_tasks = 1u << 20;
      break;
    case 2:  // cut mid-stream by atomic-task volume
      options.max_pending_submissions = 1u << 20;
      options.max_pending_atomic_tasks = 48;
      break;
    default:  // small submission-count batches
      options.max_pending_submissions = 3;
      break;
  }
  return options;
}

struct RequesterReference {
  std::vector<CrowdsourcingTask> tasks;  // admission order
  DecompositionPlan plan;
  double cost = 0.0;
};

/// Sequential per-requester baselines: each requester's tasks, in
/// admission order, through the paper's per-task reference loop.
std::map<std::string, RequesterReference> SequentialBaselines(
    const RandomWorkload& workload) {
  std::map<std::string, RequesterReference> references;
  for (const Submission& submission : workload.submissions) {
    RequesterReference& ref = references[submission.requester];
    ref.tasks.insert(ref.tasks.end(), submission.tasks.begin(),
                     submission.tasks.end());
  }
  for (auto& [requester, ref] : references) {
    auto report = SolveBatchSequential(ref.tasks, workload.profile);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    ref.plan = std::move(report->plan);
    ref.cost = report->total_cost;
  }
  return references;
}

/// Streams the workload under `options`, reassembles each requester's
/// slices in admission order, and returns plan + summed cost per requester.
std::map<std::string, RequesterReference> StreamAndReassemble(
    const RandomWorkload& workload, const StreamingOptions& options,
    StreamingStats* stats_out = nullptr, double* billed_out = nullptr,
    CacheStats* cache_out = nullptr) {
  StreamingEngine engine(workload.profile, options);
  std::vector<std::future<Result<RequesterPlan>>> futures;
  futures.reserve(workload.submissions.size());
  for (const Submission& submission : workload.submissions) {
    futures.push_back(engine.Submit(submission.requester, submission.tasks));
  }
  engine.Drain();

  std::map<std::string, RequesterReference> reassembled;
  double billed = 0.0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const Submission& submission = workload.submissions[i];
    auto slice = futures[i].get();
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    if (!slice.ok()) continue;
    EXPECT_EQ(slice->requester_id, submission.requester);
    EXPECT_EQ(slice->num_tasks(), submission.tasks.size());
    EXPECT_EQ(slice->num_atomic_tasks(), submission.num_atomic());

    RequesterReference& ref = reassembled[submission.requester];
    size_t offset = 0;  // requester-global id of this slice's local id 0
    for (const CrowdsourcingTask& t : ref.tasks) offset += t.size();
    // Stitch the slice back in requester-global ids -- how a requester
    // reassembles their per-flush slices.
    ref.plan.AppendRange(slice->plan, 0, slice->plan.num_placements(),
                         static_cast<int64_t>(offset));
    ref.cost += slice->cost;
    billed += slice->cost;
    ref.tasks.insert(ref.tasks.end(), submission.tasks.begin(),
                     submission.tasks.end());
  }
  if (stats_out != nullptr) *stats_out = engine.stats();
  if (billed_out != nullptr) *billed_out = billed;
  if (cache_out != nullptr) *cache_out = engine.cache().stats();
  return reassembled;
}

void ExpectMatchesSequential(
    const std::map<std::string, RequesterReference>& streamed,
    const std::map<std::string, RequesterReference>& references,
    const BinProfile& profile) {
  ASSERT_EQ(streamed.size(), references.size());
  for (const auto& [requester, ref] : references) {
    SCOPED_TRACE("requester " + requester);
    auto it = streamed.find(requester);
    ASSERT_NE(it, streamed.end());
    const RequesterReference& got = it->second;

    // Placement-for-placement identity with the per-task reference solve.
    EXPECT_EQ(PlanSignature(got.plan), PlanSignature(ref.plan));
    EXPECT_NEAR(got.cost, ref.cost, 1e-9 + 1e-9 * ref.cost);

    // And independently: the reassembled plan is feasible for the
    // requester's thresholds.
    auto merged_task = ConcatenateTasks(got.tasks);
    ASSERT_TRUE(merged_task.ok()) << merged_task.status().ToString();
    auto validation = ValidatePlan(got.plan, *merged_task, profile);
    ASSERT_TRUE(validation.ok()) << validation.status().ToString();
    EXPECT_TRUE(validation->feasible)
        << "worst log margin " << validation->worst_log_margin;
    EXPECT_NEAR(validation->total_cost, got.cost, 1e-9 + 1e-9 * got.cost);
  }
}

constexpr uint64_t kSuiteSeed = 0x51adE5'7Bea17ULL;

TEST(StreamingDifferentialTest, IsolatedMatchesSequentialOnRandomWorkloads) {
  constexpr size_t kWorkloads = 100;
  const uint32_t thread_counts[] = {1, 4, 8};
  for (size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE("workload " + std::to_string(w));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + w);
    auto references = SequentialBaselines(workload);

    const StreamingOptions options =
        PolicyOf(w, thread_counts[w % 3], BatchSharing::kIsolated);
    auto streamed = StreamAndReassemble(workload, options);
    ExpectMatchesSequential(streamed, references, workload.profile);
  }
}

TEST(StreamingDifferentialTest, IdenticalAcrossThreadCountsAndPolicies) {
  RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 1234);
  auto references = SequentialBaselines(workload);
  for (uint32_t threads : {1u, 4u, 8u}) {
    for (size_t policy = 0; policy < 4; ++policy) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " policy " +
                   std::to_string(policy));
      const StreamingOptions options =
          PolicyOf(policy, threads, BatchSharing::kIsolated);
      auto streamed = StreamAndReassemble(workload, options);
      ExpectMatchesSequential(streamed, references, workload.profile);
    }
  }
}

TEST(StreamingDifferentialTest, EvictionPressureKeepsPlansIdentical) {
  // A 1-entry OPQ cache forces an eviction on every threshold-group
  // switch; the differential guarantee must not notice -- an evicted queue
  // is rebuilt to exactly the same content, and queues held by in-flight
  // shard solves stay valid via shared ownership.
  constexpr size_t kWorkloads = 16;
  uint64_t total_evictions = 0;
  for (size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE("workload " + std::to_string(w));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + w);
    auto references = SequentialBaselines(workload);

    StreamingOptions options =
        PolicyOf(w, /*threads=*/1 + w % 4, BatchSharing::kIsolated);
    options.resources.cache_max_entries = 1;
    CacheStats cache_stats;
    auto streamed = StreamAndReassemble(workload, options, nullptr, nullptr,
                                        &cache_stats);
    ExpectMatchesSequential(streamed, references, workload.profile);
    total_evictions += cache_stats.evictions;
    EXPECT_LE(cache_stats.entries, 1u);
  }
  // Heterogeneous thresholds span several Algorithm 4 groups, so at least
  // some workloads must have churned the 1-entry cache.
  EXPECT_GT(total_evictions, 0u);
}

TEST(StreamingDifferentialTest, BackpressurePoliciesPreserveAdmittedPlans) {
  // Small admission caps under a fast submission loop: some submissions
  // are rejected or shed (policy-dependent), but every future resolves,
  // every failure is a clean ResourceExhausted, and every delivered slice
  // is still placement-identical to solving its submission alone.
  for (BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kReject,
        BackpressurePolicy::kShedOldest}) {
    SCOPED_TRACE(std::string("policy ") + BackpressurePolicyName(policy));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 31337);

    StreamingOptions options;
    options.max_pending_submissions = 2;
    options.max_delay_seconds = 3600.0;
    options.num_threads = 2;
    options.sharing = BatchSharing::kIsolated;
    options.resources.backpressure = policy;
    options.resources.queue_max_atomic_tasks = 48;

    StreamingEngine engine(workload.profile, options);
    std::vector<std::future<Result<RequesterPlan>>> futures;
    futures.reserve(workload.submissions.size());
    for (const Submission& submission : workload.submissions) {
      futures.push_back(
          engine.Submit(submission.requester, submission.tasks));
    }
    engine.Drain();

    uint64_t delivered = 0;
    uint64_t failed = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      SCOPED_TRACE("submission " + std::to_string(i));
      const Submission& submission = workload.submissions[i];
      auto slice = futures[i].get();
      if (!slice.ok()) {
        EXPECT_TRUE(slice.status().IsResourceExhausted())
            << slice.status().ToString();
        failed += 1;
        continue;
      }
      delivered += 1;
      // Per-submission identity: under kIsolated a slice equals the
      // sequential reference solve of just its own tasks, regardless of
      // which other submissions were admitted around it.
      auto reference =
          SolveBatchSequential(submission.tasks, workload.profile);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(PlanSignature(slice->plan), PlanSignature(reference->plan));
      EXPECT_NEAR(slice->cost, reference->total_cost,
                  1e-9 + 1e-9 * reference->total_cost);
    }

    const StreamingStats stats = engine.stats();
    if (policy == BackpressurePolicy::kBlock) {
      EXPECT_EQ(failed, 0u);  // blocking loses nothing
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_EQ(stats.shed, 0u);
    }
    EXPECT_EQ(delivered + failed, futures.size());
    EXPECT_EQ(stats.rejected + stats.shed, failed);
    // Admitted = delivered + shed (rejected never entered the queue).
    EXPECT_EQ(stats.submissions, delivered + stats.shed);
  }
}

TEST(StreamingDifferentialTest, PooledSlicesAreFeasibleAndConserveCost) {
  constexpr size_t kWorkloads = 24;
  for (size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE("workload " + std::to_string(w));
    RandomWorkload workload = MakeRandomWorkload(kSuiteSeed + 7000 + w);

    const StreamingOptions options =
        PolicyOf(w, /*threads=*/1 + w % 4, BatchSharing::kPooled);
    StreamingStats stats;
    double billed = 0.0;
    auto streamed = StreamAndReassemble(workload, options, &stats, &billed);

    // Every requester's reassembled plan meets their thresholds, even when
    // micro-batches tiled their atomic tasks into shared bins.
    for (const auto& [requester, got] : streamed) {
      SCOPED_TRACE("requester " + requester);
      auto merged_task = ConcatenateTasks(got.tasks);
      ASSERT_TRUE(merged_task.ok());
      auto validation = ValidatePlan(got.plan, *merged_task, workload.profile);
      ASSERT_TRUE(validation.ok()) << validation.status().ToString();
      EXPECT_TRUE(validation->feasible)
          << "worst log margin " << validation->worst_log_margin;
    }

    // Shared bins are billed to every requester they serve, so the billed
    // sum can only meet or exceed what the platform actually paid.
    EXPECT_GE(billed, stats.total_cost - 1e-6);
  }
}

}  // namespace
}  // namespace slade
