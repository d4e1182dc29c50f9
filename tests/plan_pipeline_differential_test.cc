// Randomized differential suite for the plan pipeline.
//
// The contract under test: the batch engine's sharding, OPQ cache, columnar
// shard-merge, splitter and streaming front end change how a plan is
// computed and delivered, never what it is. At every layer the plan must
// be placement-for-placement identical to the per-task reference path,
// across pooled/isolated sharing, fairness on/off, 1/4/8 worker threads,
// and OPQ-cache pressure.
//
// The references are the paper's OPQ-Extended solver (Algorithm 5): run
// per crowdsourcing task and merged (SolveBatchSequential) for isolated
// sharing, and run on the concatenated batch for pooled sharing, whose
// batch-wide Algorithm 4 partition is the concatenated task's own. At the
// solver layer, Algorithm 3 itself must be invariant under relabeling the
// ids it assigns.

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"
#include "solver/opq_extended_solver.h"
#include "solver/opq_solver.h"
#include "solver/plan.h"
#include "solver/plan_validator.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace slade {
namespace {

constexpr uint64_t kSuiteSeed = 0xC01D'CAFEull;

BinProfile RandomProfile(std::mt19937_64& rng) {
  const DatasetKind dataset =
      (rng() % 2 == 0) ? DatasetKind::kJelly : DatasetKind::kSmic;
  const uint32_t max_cardinality = 4 + static_cast<uint32_t>(rng() % 9);
  auto profile = BuildProfile(MakeModel(dataset), max_cardinality);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).ValueOrDie();
}

ThresholdSpec RandomSpec(std::mt19937_64& rng) {
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
  return spec;
}

CrowdsourcingTask RandomTask(const ThresholdSpec& spec, size_t n,
                             uint64_t seed) {
  auto thresholds = GenerateThresholds(spec, n, seed);
  EXPECT_TRUE(thresholds.ok()) << thresholds.status().ToString();
  auto task =
      CrowdsourcingTask::FromThresholds(std::move(thresholds).ValueOrDie());
  EXPECT_TRUE(task.ok()) << task.status().ToString();
  return std::move(task).ValueOrDie();
}

std::vector<CrowdsourcingTask> RandomBatch(std::mt19937_64& rng,
                                           const ThresholdSpec& spec) {
  const size_t num_tasks = 1 + rng() % 6;
  std::vector<CrowdsourcingTask> tasks;
  tasks.reserve(num_tasks);
  for (size_t k = 0; k < num_tasks; ++k) {
    tasks.push_back(RandomTask(spec, 1 + rng() % 30, rng()));
  }
  return tasks;
}

// --- Solver layer: Algorithm 3 is invariant under id relabeling ------------

TEST(PlanPipelineDifferentialTest, OpqAssignmentIsInvariantUnderIdRelabeling) {
  std::mt19937_64 rng(kSuiteSeed);
  for (int trial = 0; trial < 40; ++trial) {
    const BinProfile profile = RandomProfile(rng);
    const double t =
        0.6 + 0.38 * (static_cast<double>(rng() % 1000) / 1000.0);
    auto queue = BuildOpq(profile, t);
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();

    // Global (non-contiguous, non-zero-based) ids, as the threshold-group
    // sharding of Algorithm 5 produces them.
    const size_t n = 1 + rng() % 200;
    const TaskId base = static_cast<TaskId>(rng() % 10'000);
    std::vector<TaskId> ids;
    std::vector<TaskId> dense;
    ids.reserve(n);
    dense.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(base + static_cast<TaskId>(3 * i));
      dense.push_back(static_cast<TaskId>(i));
    }

    DecompositionPlan global;
    ASSERT_TRUE(RunOpqAssignment(*queue, ids.data(), n, profile, &global).ok());
    DecompositionPlan local;
    ASSERT_TRUE(
        RunOpqAssignment(*queue, dense.data(), n, profile, &local).ok());
    // The same bins, with each dense id k replaced by ids[k].
    DecompositionPlan relabeled;
    for (size_t i = 0; i < local.num_placements(); ++i) {
      const DecompositionPlan::PlacementView p = local.view(i);
      std::vector<TaskId> members;
      for (uint32_t k = 0; k < p.num_tasks; ++k) {
        members.push_back(ids[p.tasks[k]]);
      }
      relabeled.Add(p.cardinality, p.copies, members);
    }
    ASSERT_EQ(PlanSignature(global), PlanSignature(relabeled))
        << "trial " << trial << " t=" << t << " n=" << n;
    EXPECT_DOUBLE_EQ(global.TotalCost(profile), local.TotalCost(profile));
    EXPECT_EQ(global.TotalBinInstances(), local.TotalBinInstances());
  }
}

// --- Engine layer: SolveBatch merge, across sharing and thread counts -------

TEST(PlanPipelineDifferentialTest,
     BatchMergeMatchesSequentialReferenceAcrossThreads) {
  std::mt19937_64 rng(kSuiteSeed ^ 0x1);
  for (int trial = 0; trial < 12; ++trial) {
    const BinProfile profile = RandomProfile(rng);
    const ThresholdSpec spec = RandomSpec(rng);
    const std::vector<CrowdsourcingTask> tasks = RandomBatch(rng, spec);

    for (BatchSharing sharing :
         {BatchSharing::kIsolated, BatchSharing::kPooled}) {
      std::string reference_signature;
      double reference_cost = 0.0;
      for (uint32_t threads : {1u, 4u, 8u}) {
        EngineOptions options;
        options.sharing = sharing;
        options.num_threads = threads;
        DecompositionEngine engine(options);
        auto report = engine.SolveBatch(tasks, profile);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        const std::string signature = PlanSignature(report->plan);
        if (reference_signature.empty()) {
          reference_signature = signature;
          reference_cost = report->total_cost;
        } else {
          // The columnar shard-merge must be deterministic in thread count.
          EXPECT_EQ(signature, reference_signature)
              << "trial " << trial << " threads " << threads;
          EXPECT_DOUBLE_EQ(report->total_cost, reference_cost);
        }
        // Every slice of the merged plan validates against its
        // requester's thresholds.
        std::vector<RequesterSpan> spans;
        for (size_t k = 0; k < tasks.size(); ++k) {
          spans.push_back({"r" + std::to_string(k), k, 1});
        }
        auto slices = PlanSplitter::SplitBySpans(*report, profile, spans);
        ASSERT_TRUE(slices.ok()) << slices.status().ToString();
        for (size_t k = 0; k < tasks.size(); ++k) {
          auto validation = ValidatePlan((*slices)[k].plan, tasks[k], profile);
          ASSERT_TRUE(validation.ok()) << validation.status().ToString();
          EXPECT_TRUE(validation->feasible)
              << "trial " << trial << " task " << k << " margin "
              << validation->worst_log_margin;
        }
      }
      if (sharing == BatchSharing::kIsolated) {
        // Isolated batches are pinned to the per-task reference: the
        // OPQ-Extended solver run on each task alone.
        auto sequential = SolveBatchSequential(tasks, profile);
        ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
        EXPECT_EQ(reference_signature, PlanSignature(sequential->plan))
            << "trial " << trial;
      } else {
        // Pooled batches are pinned to OPQ-Extended on the concatenated
        // task: the batch-wide partition is that task's own.
        auto merged = ConcatenateTasks(tasks);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        auto whole = OpqExtendedSolver().Solve(*merged, profile);
        ASSERT_TRUE(whole.ok()) << whole.status().ToString();
        EXPECT_EQ(reference_signature, PlanSignature(*whole))
            << "trial " << trial;
      }
    }
  }
}

// --- Engine + splitter at scale: every size constant crossed --------------

/// The reference cut: placement by placement, id by id, each id goes to
/// the slice of the span owning it, renumbered from that span's first
/// atomic task.
std::vector<DecompositionPlan> NaiveSplit(
    const BatchReport& report, const std::vector<RequesterSpan>& spans) {
  std::vector<size_t> owner(report.num_atomic_tasks(), 0);
  std::vector<size_t> first_id(spans.size(), 0);
  for (size_t s = 0; s < spans.size(); ++s) {
    const size_t begin = report.task_offsets[spans[s].first_task];
    const size_t end =
        report.task_offsets[spans[s].first_task + spans[s].num_tasks];
    first_id[s] = begin;
    for (size_t id = begin; id < end; ++id) owner[id] = s;
  }
  std::vector<DecompositionPlan> slices(spans.size());
  for (size_t i = 0; i < report.plan.num_placements(); ++i) {
    const DecompositionPlan::PlacementView p = report.plan.view(i);
    std::map<size_t, std::vector<TaskId>> members;
    for (uint32_t k = 0; k < p.num_tasks; ++k) {
      const size_t o = owner[p.tasks[k]];
      members[o].push_back(static_cast<TaskId>(p.tasks[k] - first_id[o]));
    }
    for (const auto& [o, ids] : members) {
      slices[o].Add(p.cardinality, p.copies, ids);
    }
  }
  return slices;
}

TEST(PlanPipelineDifferentialTest,
     LargePooledBatchMatchesReferencesAcrossThreads) {
  // 360 tasks x 1,000 atomic tasks with N(0.9, 0.03) thresholds: the
  // dominant threshold group holds over 300k ids, so the batch routes in
  // several chunks, its large shard is assigned in at least 4 LCM-aligned
  // parts beside small single-job shards, and the split fans out.
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  auto batch = MakeBatchWorkload(DatasetKind::kJelly, 360, 1000, spec, 10,
                                 kSuiteSeed);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const BinProfile& profile = batch->profile;
  const std::vector<CrowdsourcingTask>& tasks = batch->tasks;

  auto merged = ConcatenateTasks(tasks);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto whole = OpqExtendedSolver().Solve(*merged, profile);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  const std::string reference = PlanSignature(*whole);

  // Requesters of 3 tasks, with an empty requester in the middle and one
  // at the end.
  std::vector<RequesterSpan> spans;
  for (size_t k = 0; k < tasks.size(); k += 3) {
    spans.push_back({"r" + std::to_string(k), k, 3});
    if (k == 180) spans.push_back({"empty-mid", k + 3, 0});
  }
  spans.push_back({"empty-end", tasks.size(), 0});

  std::vector<std::string> naive;
  std::vector<double> naive_cost;
  std::vector<ShardStats> reference_shards;
  double reference_total = 0.0;
  for (uint32_t threads : {1u, 4u, 8u}) {
    EngineOptions options;
    options.sharing = BatchSharing::kPooled;
    options.num_threads = threads;
    DecompositionEngine engine(options);
    auto report = engine.SolveBatch(tasks, profile);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(PlanSignature(report->plan), reference) << "threads " << threads;

    size_t largest = 0;
    for (const ShardStats& s : report->shards) {
      largest = std::max(largest, s.num_atomic_tasks);
    }
    ASSERT_GE(largest, 300'000u);
    ASSERT_GT(report->shards.size(), 1u);
    if (reference_shards.empty()) {
      reference_shards = report->shards;
      reference_total = report->total_cost;
    } else {
      // Exact equality: the cut is a constant, never the thread count.
      EXPECT_EQ(report->total_cost, reference_total) << "threads " << threads;
      ASSERT_EQ(report->shards.size(), reference_shards.size());
      for (size_t i = 0; i < reference_shards.size(); ++i) {
        const ShardStats& a = report->shards[i];
        const ShardStats& b = reference_shards[i];
        EXPECT_EQ(a.group, b.group);
        EXPECT_EQ(a.num_atomic_tasks, b.num_atomic_tasks);
        EXPECT_EQ(a.cost, b.cost) << "shard " << i << " threads " << threads;
        EXPECT_EQ(a.bins_posted, b.bins_posted);
        EXPECT_EQ(a.surrogate_threshold, b.surrogate_threshold);
      }
    }

    if (naive.empty()) {
      // More slice placements than merged ones: some bins mix requesters.
      size_t slice_placements = 0;
      for (const DecompositionPlan& slice : NaiveSplit(*report, spans)) {
        naive.push_back(PlanSignature(slice));
        naive_cost.push_back(slice.TotalCost(profile));
        slice_placements += slice.num_placements();
      }
      ASSERT_GT(slice_placements, report->plan.num_placements());
    }
    auto slices = PlanSplitter::SplitBySpans(*report, profile, spans);
    ASSERT_TRUE(slices.ok()) << slices.status().ToString();
    ASSERT_EQ(slices->size(), spans.size());
    for (size_t s = 0; s < spans.size(); ++s) {
      const RequesterPlan& slice = (*slices)[s];
      EXPECT_EQ(slice.requester_id, spans[s].requester_id);
      EXPECT_EQ(PlanSignature(slice.plan), naive[s])
          << "slice " << s << " threads " << threads;
      EXPECT_EQ(slice.cost, naive_cost[s]);
      EXPECT_EQ(slice.bins_posted, slice.plan.TotalBinInstances());
      ASSERT_EQ(slice.num_tasks(), spans[s].num_tasks);
      for (size_t k = 0; k <= spans[s].num_tasks; ++k) {
        EXPECT_EQ(slice.task_offsets[k],
                  report->task_offsets[spans[s].first_task + k] -
                      report->task_offsets[spans[s].first_task]);
      }
    }

    // Out-of-range ids in an early and a late placement: the fanned-out
    // split names the earliest, in the message a small plan gets.
    const size_t atomic = report->num_atomic_tasks();
    const size_t half = report->plan.num_placements() / 2;
    const TaskId early = static_cast<TaskId>(atomic + 7);
    const TaskId late = static_cast<TaskId>(atomic + 3);
    BatchReport bad;
    bad.task_offsets = report->task_offsets;
    bad.plan.AppendRange(report->plan, 0, half, 0);
    bad.plan.Add(2, 1, {0, early});
    bad.plan.AppendRange(report->plan, half,
                         report->plan.num_placements() - half, 0);
    bad.plan.Add(2, 1, {1, late});
    BatchReport small;
    small.task_offsets = report->task_offsets;
    small.plan.Add(2, 1, {0, early});
    small.plan.Add(2, 1, {1, late});
    auto bad_split = PlanSplitter::SplitBySpans(bad, profile, spans);
    auto small_split = PlanSplitter::SplitBySpans(small, profile, spans);
    ASSERT_FALSE(bad_split.ok());
    ASSERT_FALSE(small_split.ok());
    EXPECT_TRUE(bad_split.status().IsInvalidArgument());
    EXPECT_EQ(bad_split.status().ToString(), small_split.status().ToString());
    EXPECT_NE(bad_split.status().ToString().find(std::to_string(early)),
              std::string::npos)
        << bad_split.status().ToString();
  }
}

// --- Streaming layer: fairness on/off, cache pressure ----------------------

TEST(PlanPipelineDifferentialTest, StreamingSlicesMatchSequentialReference) {
  std::mt19937_64 rng(kSuiteSeed ^ 0x2);
  for (int trial = 0; trial < 8; ++trial) {
    const BinProfile profile = RandomProfile(rng);
    const ThresholdSpec spec = RandomSpec(rng);

    struct Submission {
      std::string requester;
      std::vector<CrowdsourcingTask> tasks;
    };
    const size_t num_submissions = 2 + rng() % 8;
    std::vector<Submission> submissions;
    for (size_t s = 0; s < num_submissions; ++s) {
      Submission submission;
      submission.requester = "tenant" + std::to_string(rng() % 3);
      const size_t num_tasks = 1 + rng() % 3;
      for (size_t k = 0; k < num_tasks; ++k) {
        submission.tasks.push_back(RandomTask(spec, 1 + rng() % 20, rng()));
      }
      submissions.push_back(std::move(submission));
    }

    // Per-submission reference: the sequential per-task path.
    std::vector<std::string> reference;
    for (const Submission& submission : submissions) {
      auto sequential = SolveBatchSequential(submission.tasks, profile);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
      reference.push_back(PlanSignature(sequential->plan));
    }

    const bool fairness = (trial % 2 == 0);
    for (uint32_t threads : {1u, 4u, 8u}) {
      for (uint64_t cache_entries : {uint64_t{0}, uint64_t{1}}) {
        StreamingOptions options;
        options.sharing = BatchSharing::kIsolated;
        options.num_threads = threads;
        options.max_pending_submissions = 1 + rng() % 4;
        options.resources.cache_max_entries = cache_entries;
        options.fairness.enabled = fairness;
        options.fairness.quantum_atomic_tasks = 8;
        StreamingEngine engine(profile, options);

        std::vector<std::future<Result<RequesterPlan>>> futures;
        for (const Submission& submission : submissions) {
          futures.push_back(
              engine.Submit(submission.requester, submission.tasks));
        }
        engine.Drain();
        for (size_t s = 0; s < submissions.size(); ++s) {
          auto slice = futures[s].get();
          ASSERT_TRUE(slice.ok()) << slice.status().ToString();
          EXPECT_EQ(PlanSignature(slice->plan), reference[s])
              << "trial " << trial << " submission " << s << " threads "
              << threads << " cache_entries " << cache_entries
              << " fairness " << fairness;
        }
      }
    }
  }
}

}  // namespace
}  // namespace slade
