// Online recalibration: drift convergence, no-drift stability, and
// admission-epoch pinning.
//
// Ground truth is the generative power-law model (profile_model.h /
// synthetic power-law profiles): a platform's *true* reliability shifts
// mid-run while the registered profile still claims the old numbers.
// Folding ground-truth-scored outcomes must detect the drift, refit, and
// promote a new epoch whose predicted confidences converge on the truth --
// while a platform whose outcomes match its profile must never promote
// (no epoch churn, no cache churn). Plans admitted before a promotion keep
// solving under their admission epoch.

#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/calibration.h"
#include "binmodel/profile_model.h"
#include "engine/closed_loop_engine.h"
#include "engine/decomposition_engine.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "common/random.h"

namespace slade {
namespace {

/// A profile whose confidences follow 1 - base * l^power exactly -- the
/// same family the regression estimator fits, so exact-count outcomes
/// generated from one of these converge with no structural bias.
BinProfile PowerLawProfile(double base, double power, uint32_t m) {
  std::vector<TaskBin> bins;
  for (uint32_t l = 1; l <= m; ++l) {
    TaskBin b;
    b.cardinality = l;
    b.confidence = 1.0 - base * std::pow(static_cast<double>(l), power);
    b.cost = 0.05 + 0.01 * static_cast<double>(l);
    bins.push_back(b);
  }
  auto profile = BinProfile::Create(std::move(bins));
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).ValueOrDie();
}

/// Exact-count observations whose CountingEstimate inverts to the given
/// true confidence (Laplace smoothing inverted, so the estimator sees the
/// truth up to 1/total rounding).
ProbeObservation ExactObs(uint32_t l, double true_confidence,
                          uint64_t total) {
  ProbeObservation obs;
  obs.cardinality = l;
  obs.total = total;
  obs.correct = static_cast<uint64_t>(
      std::llround(true_confidence * static_cast<double>(total + 2) - 1.0));
  return obs;
}

std::vector<ProbeObservation> OutcomesFromProfile(const BinProfile& truth,
                                                  uint64_t total_per_l) {
  std::vector<ProbeObservation> outcomes;
  for (uint32_t l = 1; l <= truth.max_cardinality(); ++l) {
    outcomes.push_back(ExactObs(l, truth.bin(l).confidence, total_per_l));
  }
  return outcomes;
}

TEST(RecalibrationTest, DriftPromotesAndConverges) {
  // Registered: the optimistic pre-drift profile. Truth: failures have
  // doubled. Folding exact-count outcomes from the truth must promote and
  // land the new epoch's confidences on the true curve.
  constexpr uint32_t kM = 8;
  const BinProfile registered = PowerLawProfile(0.02, 0.7, kM);
  const BinProfile truth = PowerLawProfile(0.04, 0.7, kM);

  RecalibrationOptions recalibration;
  recalibration.recalibrate_every = 4000;
  recalibration.drift_tolerance = 0.01;
  ProfileRegistry registry(recalibration);
  ASSERT_TRUE(registry.Register("p", BinProfile(registered)).ok());

  // First fold: 8 cardinalities x 400 answers = 3200 < window, no refit.
  auto folded = registry.FoldOutcomes("p", OutcomesFromProfile(truth, 400));
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 0u);
  EXPECT_EQ(registry.stats()[0].promotions, 0u);

  // Second fold crosses the window: refit sees 800 answers per
  // cardinality of pure truth and must promote.
  folded = registry.FoldOutcomes("p", OutcomesFromProfile(truth, 400));
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 2u);

  auto snapshot = registry.Current("p");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 2u);
  for (uint32_t l = 1; l <= kM; ++l) {
    EXPECT_NEAR(snapshot->profile->bin(l).confidence,
                truth.bin(l).confidence, 5e-3)
        << "l=" << l;
    // Bin costs carry over from the serving profile: recalibration
    // re-estimates reliability, not the marketplace's price list.
    EXPECT_DOUBLE_EQ(snapshot->profile->bin(l).cost,
                     registered.bin(l).cost);
  }

  const PlatformStats stats = registry.stats()[0];
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.answers_folded, 8u * 800u);
  EXPECT_GT(stats.last_recalibration_delta, recalibration.drift_tolerance);
}

TEST(RecalibrationTest, NoDriftNeverPromotes) {
  // Outcomes that agree with the registered profile: refits run, measure a
  // near-zero delta, and never promote -- so no epoch listener fires and
  // no cache entry is ever invalidated.
  constexpr uint32_t kM = 6;
  const BinProfile registered = PowerLawProfile(0.03, 0.8, kM);

  RecalibrationOptions recalibration;
  recalibration.recalibrate_every = 1000;
  recalibration.drift_tolerance = 0.01;
  ProfileRegistry registry(recalibration);
  ASSERT_TRUE(registry.Register("p", BinProfile(registered)).ok());

  int epoch_changes = 0;
  registry.AddEpochListener(
      [&epoch_changes](const std::string&, uint64_t, uint64_t) {
        ++epoch_changes;
      });

  auto before = registry.Current("p");
  ASSERT_TRUE(before.ok());
  for (int round = 0; round < 5; ++round) {
    auto folded =
        registry.FoldOutcomes("p", OutcomesFromProfile(registered, 5000));
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(*folded, 0u) << "round " << round;
  }
  auto after = registry.Current("p");
  ASSERT_TRUE(after.ok());

  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(after->profile.get(), before->profile.get());  // same snapshot
  EXPECT_EQ(epoch_changes, 0);
  const PlatformStats stats = registry.stats()[0];
  EXPECT_EQ(stats.promotions, 0u);
  // Refits did run -- the delta was measured, just under tolerance.
  EXPECT_GT(stats.answers_folded, 0u);
  EXPECT_LE(stats.last_recalibration_delta, recalibration.drift_tolerance);
}

TEST(RecalibrationTest, RecalibrationOffAccumulatesWithoutRefitting) {
  // recalibrate_every == 0: folding keeps counters but never refits, so
  // even wildly drifted outcomes change nothing.
  const BinProfile registered = PowerLawProfile(0.02, 0.7, 4);
  const BinProfile truth = PowerLawProfile(0.20, 0.7, 4);
  ProfileRegistry registry;  // default: recalibration off
  ASSERT_TRUE(registry.Register("p", BinProfile(registered)).ok());
  for (int round = 0; round < 3; ++round) {
    auto folded =
        registry.FoldOutcomes("p", OutcomesFromProfile(truth, 10000));
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(*folded, 0u);
  }
  EXPECT_EQ(registry.stats()[0].promotions, 0u);
  EXPECT_DOUBLE_EQ(registry.stats()[0].last_recalibration_delta, 0.0);
  EXPECT_EQ(registry.Current("p")->epoch, 1u);
}

TEST(RecalibrationTest, AdmittedPlansSolveUnderAdmissionEpoch) {
  // Submissions admitted before a promotion were priced and routed under
  // the old epoch; the promotion must not re-plan them. The new epoch's
  // profile triples every bin cost, so any re-plan would show up in the
  // delivered slice cost.
  const BinProfile old_profile = PowerLawProfile(0.03, 0.8, 6);
  std::vector<TaskBin> pricier;
  for (uint32_t l = 1; l <= old_profile.max_cardinality(); ++l) {
    TaskBin b = old_profile.bin(l);
    b.cost *= 3.0;
    pricier.push_back(b);
  }
  const BinProfile new_profile =
      BinProfile::Create(std::move(pricier)).ValueOrDie();

  ProfileRegistry registry;
  ASSERT_TRUE(registry.Register("p", BinProfile(old_profile)).ok());

  StreamingOptions options;
  // One giant micro-batch, cut only by Drain: everything submitted below
  // stays pending across the promotion.
  options.max_pending_submissions = 1u << 20;
  options.max_pending_atomic_tasks = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.num_threads = 2;
  options.registry = &registry;
  StreamingEngine engine(old_profile, options);

  std::vector<std::vector<CrowdsourcingTask>> submissions;
  std::vector<std::future<Result<RequesterPlan>>> futures;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> thresholds(6, 0.85 + 0.02 * i);
    submissions.push_back(
        {CrowdsourcingTask::FromThresholds(std::move(thresholds))
             .ValueOrDie()});
    futures.push_back(engine.Submit("r" + std::to_string(i),
                                    submissions.back()));
  }

  // Promote while all four sit in the pending queue.
  auto promoted = registry.Promote("p", BinProfile(new_profile));
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*promoted, 2u);
  engine.Drain();

  for (size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE("submission " + std::to_string(i));
    auto slice = futures[i].get();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_EQ(slice->platform, "p");
    EXPECT_EQ(slice->epoch, 1u);  // admission epoch, not the promoted one
    auto reference = SolveBatchSequential(submissions[i], old_profile);
    ASSERT_TRUE(reference.ok());
    EXPECT_NEAR(slice->cost, reference->total_cost,
                1e-9 + 1e-9 * reference->total_cost);
  }

  // Work admitted after the promotion serves (and is billed) at epoch 2.
  auto post = engine.Submit("r9", submissions[0]);
  engine.Drain();
  auto post_slice = post.get();
  ASSERT_TRUE(post_slice.ok()) << post_slice.status().ToString();
  EXPECT_EQ(post_slice->epoch, 2u);
  auto post_reference = SolveBatchSequential(submissions[0], new_profile);
  ASSERT_TRUE(post_reference.ok());
  EXPECT_NEAR(post_slice->cost, post_reference->total_cost,
              1e-9 + 1e-9 * post_reference->total_cost);
}

TEST(RecalibrationTest, ClosedLoopFoldsMarketplaceOutcomesIntoRegistry) {
  // End to end through the closed loop: the registered profile claims
  // near-perfect workers, the simulated marketplace (profile_model.h's
  // Jelly model) is much noisier. Each round's answers, scored per bin
  // cardinality, flow into FoldOutcomes; the registry must notice the gap,
  // promote, and pull the serving confidences down toward the
  // marketplace's real accuracy.
  constexpr uint32_t kM = 8;
  const BinProfile optimistic = PowerLawProfile(0.002, 0.5, kM);

  RecalibrationOptions recalibration;
  recalibration.recalibrate_every = 50;
  recalibration.drift_tolerance = 0.02;
  ProfileRegistry registry(recalibration);
  ASSERT_TRUE(registry.Register("sim", BinProfile(optimistic)).ok());

  ClosedLoopOptions options;
  options.streaming.registry = &registry;
  options.streaming.max_delay_seconds = 3600.0;
  options.platform.model = MakeModel(DatasetKind::kJelly);
  options.platform.seed = 7;
  options.max_rounds = 2;

  Xoshiro256 rng(99);
  std::vector<ClosedLoopWorkload> workloads;
  for (int w = 0; w < 6; ++w) {
    ClosedLoopWorkload workload;
    workload.requester = "r" + std::to_string(w % 2);
    std::vector<double> thresholds(10, 0.88);
    workload.tasks.push_back(
        CrowdsourcingTask::FromThresholds(std::move(thresholds))
            .ValueOrDie());
    for (int k = 0; k < 10; ++k) {
      workload.ground_truth.push_back(rng.NextBernoulli(0.5));
    }
    workloads.push_back(std::move(workload));
  }

  ClosedLoopEngine engine(BinProfile(optimistic), options);
  auto report = engine.Run(workloads);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(registry.stats().size(), 1u);
  const PlatformStats stats = registry.stats()[0];
  EXPECT_GT(stats.answers_folded, 0u);
  EXPECT_GE(stats.promotions, 1u);
  EXPECT_GT(stats.last_recalibration_delta, 0.0);

  // The promoted profile stopped believing the near-perfect claims:
  // every serving confidence moved strictly below the optimistic one.
  auto snapshot = registry.Current("sim");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->epoch, 1u);
  double max_drop = 0.0;
  for (uint32_t l = 1; l <= kM; ++l) {
    max_drop = std::max(max_drop, optimistic.bin(l).confidence -
                                      snapshot->profile->bin(l).confidence);
  }
  EXPECT_GT(max_drop, recalibration.drift_tolerance);
}

}  // namespace
}  // namespace slade
