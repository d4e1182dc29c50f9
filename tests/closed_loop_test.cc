// Closed-loop engine: differential identity against plain streaming
// admission, adaptive-retry value under spammers, budget stops, fault
// survival and determinism.

#include "engine/closed_loop_engine.h"

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "common/random.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"

namespace slade {
namespace {

BinProfile JellyProfile() {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 10);
  EXPECT_TRUE(profile.ok());
  return std::move(profile).ValueOrDie();
}

/// `count` workloads of one heterogeneous task each, thresholds cycling
/// in [0.82, 0.93], ground truth from `seed`.
std::vector<ClosedLoopWorkload> MakeWorkloads(size_t count,
                                              size_t atomic_per_workload,
                                              uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<ClosedLoopWorkload> workloads;
  for (size_t w = 0; w < count; ++w) {
    ClosedLoopWorkload workload;
    workload.requester = "r" + std::to_string(w % 3);
    std::vector<double> thresholds;
    for (size_t k = 0; k < atomic_per_workload; ++k) {
      thresholds.push_back(0.82 + 0.11 * static_cast<double>(k % 5) / 4.0);
    }
    workload.tasks.push_back(
        CrowdsourcingTask::FromThresholds(std::move(thresholds))
            .ValueOrDie());
    for (size_t k = 0; k < atomic_per_workload; ++k) {
      workload.ground_truth.push_back(rng.NextBernoulli(0.5));
    }
    workloads.push_back(std::move(workload));
  }
  return workloads;
}

// Criterion (a) of the closed-loop contract: with faults disabled and one
// round, the loop is plain streaming admission -- every delivered slice
// (and the billed total) matches submitting the same workloads to a
// StreamingEngine directly.
TEST(ClosedLoopTest, NoFaultRoundOneMatchesPlainStreaming) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(7, 12, /*seed=*/31);

  ClosedLoopOptions options;
  options.max_rounds = 1;
  options.keep_round_plans = true;
  ClosedLoopEngine engine(profile, options);
  auto report = engine.Run(workloads);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rounds, 1u);
  ASSERT_EQ(report->round_plans.size(), 1u);
  ASSERT_EQ(report->round_plans[0].size(), workloads.size());

  StreamingEngine reference(profile, options.streaming);
  std::vector<std::future<Result<RequesterPlan>>> futures;
  for (const ClosedLoopWorkload& w : workloads) {
    futures.push_back(reference.Submit(w.requester, w.tasks));
  }
  reference.Drain();

  double reference_billed = 0.0;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto slice = futures[i].get();
    ASSERT_TRUE(slice.ok());
    const RequesterPlan& loop_slice = report->round_plans[0][i];
    EXPECT_EQ(PlanSignature(loop_slice.plan), PlanSignature(slice->plan))
        << "submission " << i;
    EXPECT_DOUBLE_EQ(loop_slice.cost, slice->cost);
    reference_billed += slice->cost;
  }
  EXPECT_DOUBLE_EQ(report->billed_cost, reference_billed);
}

// With majority inference and no faults every answered task is fully
// confident, so a multi-round loop converges in round 1 and bills exactly
// the no-retry amount.
TEST(ClosedLoopTest, ConvergedLoopBillsExactlyOneRound) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(5, 10, /*seed=*/77);

  ClosedLoopOptions no_retry;
  no_retry.max_rounds = 1;
  no_retry.inference = InferenceKind::kMajorityVote;
  auto baseline = ClosedLoopEngine(profile, no_retry).Run(workloads);
  ASSERT_TRUE(baseline.ok());

  ClosedLoopOptions adaptive = no_retry;
  adaptive.max_rounds = 5;
  auto looped = ClosedLoopEngine(profile, adaptive).Run(workloads);
  ASSERT_TRUE(looped.ok());

  EXPECT_EQ(looped->rounds, 1u);
  EXPECT_EQ(looped->redecomposed_atomic_tasks, 0u);
  EXPECT_DOUBLE_EQ(looped->billed_cost, baseline->billed_cost);
  EXPECT_EQ(looped->total_bins, baseline->total_bins);
  EXPECT_EQ(looped->final_under_confident, 0u);
}

// Criterion (b): under a heavy steady spammer population, adaptive
// re-decomposition measurably improves final accuracy over the no-retry
// baseline, at a billed cost bounded by the configured multiple.
TEST(ClosedLoopTest, AdaptiveRetryBeatsNoRetryUnderSpammers) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(9, 20, /*seed=*/13);

  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.45;
  options.platform.seed = 2024;
  options.inference = InferenceKind::kDawidSkene;
  options.max_rounds = 1;
  auto no_retry = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(no_retry.ok());

  options.max_rounds = 4;
  options.retry_cost_multiple = 5.0;
  auto adaptive = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(adaptive.ok());

  EXPECT_GT(adaptive->rounds, 1u);
  EXPECT_GT(adaptive->redecomposed_atomic_tasks, 0u);
  // Measurable accuracy gain...
  EXPECT_GE(adaptive->final_accuracy, no_retry->final_accuracy + 0.02);
  EXPECT_LT(adaptive->final_under_confident,
            no_retry->final_under_confident);
  // ...at bounded extra cost.
  EXPECT_GT(adaptive->billed_cost, no_retry->billed_cost);
  EXPECT_LE(adaptive->billed_cost, 5.0 * no_retry->billed_cost + 1e-9);
}

TEST(ClosedLoopTest, RedecompositionBudgetStopsTheLoop) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(6, 15, /*seed=*/13);

  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.45;
  options.inference = InferenceKind::kDawidSkene;
  options.max_rounds = 6;
  options.max_redecomposed_atomic_tasks = 10;
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->budget_stopped);
  EXPECT_LE(report->redecomposed_atomic_tasks, 10u);
}

TEST(ClosedLoopTest, RetryCostBudgetStopsTheLoop) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(6, 15, /*seed=*/13);

  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.45;
  options.inference = InferenceKind::kDawidSkene;
  options.max_rounds = 8;
  // Round 1 alone reaches the 1x budget, so no retry round may start.
  options.retry_cost_multiple = 1.0;
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rounds, 1u);
  EXPECT_TRUE(report->budget_stopped);
  EXPECT_EQ(report->redecomposed_atomic_tasks, 0u);
}

// A permanent outage must not hang or crash the loop: every post is
// eventually dropped, nothing is answered, and the report says so.
TEST(ClosedLoopTest, PermanentOutageCompletesWithDroppedBins) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(3, 8, /*seed=*/5);

  ClosedLoopOptions options;
  options.max_rounds = 2;
  options.faults.outage_period = 4;
  options.faults.outage_length = 4;  // always down
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rounds, 2u);
  EXPECT_EQ(report->total_answers, 0u);
  EXPECT_EQ(report->final_under_confident, 3u * 8u);
  EXPECT_DOUBLE_EQ(report->platform_cost, 0.0);
  uint64_t dropped = 0;
  for (const ClosedLoopRoundStats& r : report->round_stats) {
    dropped += r.dropped_bins;
    EXPECT_EQ(r.answers, 0u);
    EXPECT_EQ(r.unanswered_after, 3u * 8u);
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(report->faults.outages, 0u);
}

// A transient outage (window shorter than the retry budget) only delays
// posts: everything is eventually answered.
TEST(ClosedLoopTest, TransientOutageDelaysButAnswersEverything) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(3, 8, /*seed=*/5);

  ClosedLoopOptions options;
  options.max_rounds = 1;
  options.faults.outage_period = 5;
  options.faults.outage_length = 2;
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->round_stats[0].dropped_bins, 0u);
  EXPECT_GT(report->round_stats[0].outage_retries, 0u);
  EXPECT_EQ(report->round_stats[0].unanswered_after, 0u);
}

TEST(ClosedLoopTest, SingleThreadedRunsAreDeterministic) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(5, 12, /*seed=*/99);

  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.3;
  options.faults.spammer_burst_period = 12;
  options.faults.spammer_burst_length = 4;
  options.faults.straggler_fraction = 0.2;
  options.inference = InferenceKind::kDawidSkene;
  options.max_rounds = 3;
  auto a = ClosedLoopEngine(profile, options).Run(workloads);
  auto b = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->rounds, b->rounds);
  EXPECT_EQ(a->total_answers, b->total_answers);
  EXPECT_EQ(a->total_bins, b->total_bins);
  EXPECT_EQ(a->redecomposed_atomic_tasks, b->redecomposed_atomic_tasks);
  EXPECT_DOUBLE_EQ(a->billed_cost, b->billed_cost);
  EXPECT_DOUBLE_EQ(a->platform_cost, b->platform_cost);
  EXPECT_DOUBLE_EQ(a->final_accuracy, b->final_accuracy);
}

// Multi-threaded dispatch reorders answer arrival but must not change
// what is answered or billed (only RNG interleaving differs).
TEST(ClosedLoopTest, MultiThreadedDispatchAnswersEverything) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(8, 16, /*seed=*/55);

  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.2;
  options.faults.straggler_fraction = 0.1;
  options.dispatch_threads = 4;
  options.max_rounds = 2;
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->round_stats[0].unanswered_after, 0u);
  EXPECT_GT(report->total_answers, 0u);
  EXPECT_GT(report->billed_cost, 0.0);
}

// A registry-served slice is billed at its serving profile's prices, so
// the marketplace must be paid those prices too -- also for bins the
// constructor profile does not have.
TEST(ClosedLoopTest, RegistryServedSlicesArePaidAtTheirBilledPrices) {
  const BinProfile profile = JellyProfile();
  const BinProfile wider =
      BuildProfile(MakeModel(DatasetKind::kJelly), 14).ValueOrDie();
  std::vector<TaskBin> bins;
  for (uint32_t l = 1; l <= wider.max_cardinality(); ++l) {
    TaskBin bin = wider.bin(l);
    bin.cost *= 1.7;
    bins.push_back(bin);
  }
  const BinProfile registered = BinProfile::Create(bins).ValueOrDie();
  ASSERT_GT(registered.max_cardinality(), profile.max_cardinality());
  ASSERT_NE(registered.bin(2).cost, profile.bin(2).cost);

  ProfileRegistry registry;
  ASSERT_TRUE(registry.Register("p", registered).ok());
  ClosedLoopOptions options;
  options.streaming.registry = &registry;
  options.max_rounds = 1;
  auto report =
      ClosedLoopEngine(profile, options).Run(MakeWorkloads(6, 40, 21));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ClosedLoopRoundStats& round = report->round_stats[0];
  ASSERT_GT(round.billed_cost, 0.0);
  EXPECT_NEAR(round.platform_cost, round.billed_cost,
              1e-9 * round.billed_cost);
}

TEST(ClosedLoopTest, RejectsMalformedInput) {
  const BinProfile profile = JellyProfile();
  ClosedLoopEngine engine(profile, {});
  EXPECT_FALSE(engine.Run({}).ok());

  auto workloads = MakeWorkloads(1, 5, /*seed=*/1);
  workloads[0].ground_truth.pop_back();
  EXPECT_FALSE(engine.Run(workloads).ok());

  ClosedLoopOptions bad;
  bad.max_rounds = 0;
  EXPECT_FALSE(
      ClosedLoopEngine(profile, bad).Run(MakeWorkloads(1, 5, 1)).ok());
}

TEST(ClosedLoopTest, ReportToStringMentionsEveryRound) {
  const BinProfile profile = JellyProfile();
  const auto workloads = MakeWorkloads(4, 10, /*seed=*/3);
  ClosedLoopOptions options;
  options.platform.spammer_fraction = 0.4;
  options.max_rounds = 2;
  auto report = ClosedLoopEngine(profile, options).Run(workloads);
  ASSERT_TRUE(report.ok());
  const std::string s = report->ToString();
  EXPECT_NE(s.find("closed loop:"), std::string::npos);
  EXPECT_NE(s.find("round"), std::string::npos);
}

}  // namespace
}  // namespace slade
