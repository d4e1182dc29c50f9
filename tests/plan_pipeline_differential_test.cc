// Randomized differential suite for the plan pipeline.
//
// The contract under test: the batch engine's sharding, OPQ cache, columnar
// shard-merge, splitter and streaming front end change how a plan is
// computed and delivered, never what it is. At every layer the plan must
// be placement-for-placement identical to the per-task reference path,
// across pooled/isolated sharing, fairness on/off, 1/4/8 worker threads,
// and OPQ-cache pressure.
//
// The reference is SolveBatchSequential, which runs the paper's
// OPQ-Extended solver (Algorithm 5) per crowdsourcing task and merges the
// per-task plans; at the solver layer, Algorithm 3 itself must be
// invariant under relabeling the ids it assigns.

#include <cstdint>
#include <future>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"
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
    ASSERT_TRUE(RunOpqAssignment(*queue, ids, profile, &global).ok());
    DecompositionPlan local;
    ASSERT_TRUE(RunOpqAssignment(*queue, dense, profile, &local).ok());
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
      }
    }
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
