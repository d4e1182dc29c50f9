#include "solver/plan_validator.h"

#include <chrono>

#include <gtest/gtest.h>

namespace slade {
namespace {

class PlanValidatorTest : public ::testing::Test {
 protected:
  BinProfile profile_ = BinProfile::PaperExample();
  CrowdsourcingTask task_ =
      CrowdsourcingTask::Homogeneous(4, 0.95).ValueOrDie();
};

TEST_F(PlanValidatorTest, AcceptsPaperPlanP2) {
  // Example 4's optimal P2: {a1,a2,a3}, {a1,a2,a4}, {a3,a4}.
  DecompositionPlan plan;
  plan.Add(3, 1, {0, 1, 2});
  plan.Add(3, 1, {0, 1, 3});
  plan.Add(2, 1, {2, 3});
  auto report = ValidatePlan(plan, task_, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);
  EXPECT_NEAR(report->total_cost, 0.66, 1e-12);
  EXPECT_GT(report->worst_log_margin, 0.0);
}

TEST_F(PlanValidatorTest, DetectsInfeasiblePlan) {
  DecompositionPlan plan;
  plan.Add(3, 1, {0, 1, 2});  // one 0.8-bin: Rel = 0.8 < 0.95
  plan.Add(1, 2, {3});
  auto report = ValidatePlan(plan, task_, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->feasible);
  EXPECT_LT(report->worst_log_margin, 0.0);
  EXPECT_LT(report->worst_task, 3u);  // one of a1..a3
}

TEST_F(PlanValidatorTest, RejectsOverfullBin) {
  DecompositionPlan plan;
  plan.Add(2, 1, {0, 1, 2});  // 3 tasks in a 2-bin
  EXPECT_TRUE(
      ValidatePlan(plan, task_, profile_).status().IsInvalidArgument());
}

TEST_F(PlanValidatorTest, RejectsDuplicateTaskInBin) {
  DecompositionPlan plan;
  plan.Add(3, 1, {0, 0, 1});
  EXPECT_TRUE(
      ValidatePlan(plan, task_, profile_).status().IsInvalidArgument());
}

TEST_F(PlanValidatorTest, RejectsUnknownCardinality) {
  DecompositionPlan plan;
  plan.Add(4, 1, {0, 1, 2});
  EXPECT_TRUE(
      ValidatePlan(plan, task_, profile_).status().IsInvalidArgument());
}

TEST_F(PlanValidatorTest, RejectsOutOfRangeTaskId) {
  DecompositionPlan plan;
  plan.Add(1, 1, {17});
  EXPECT_TRUE(ValidatePlan(plan, task_, profile_).status().IsOutOfRange());
}

TEST_F(PlanValidatorTest, PartiallyFilledBinIsLegal) {
  // Definition 1: a bin holds AT MOST l tasks.
  DecompositionPlan plan;
  plan.Add(3, 2, {0});
  plan.Add(3, 2, {1});
  plan.Add(3, 2, {2});
  plan.Add(3, 2, {3});
  auto report = ValidatePlan(plan, task_, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);  // 2 * w(0.8) = 3.22 >= 2.996
}

TEST_F(PlanValidatorTest, EmptyPlanIsInfeasibleButWellFormed) {
  DecompositionPlan plan;
  auto report = ValidatePlan(plan, task_, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->feasible);
}

TEST_F(PlanValidatorTest, HeterogeneousThresholdsChecked) {
  auto hetero = CrowdsourcingTask::FromThresholds({0.5, 0.95});
  DecompositionPlan plan;
  plan.Add(1, 1, {0});  // r=0.9 >= 0.5: fine
  plan.Add(1, 1, {1});  // r=0.9 < 0.95: violates a2
  auto report = ValidatePlan(plan, *hetero, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->feasible);
  EXPECT_EQ(report->worst_task, 1u);
}

TEST_F(PlanValidatorTest, DuplicateDetectionSpansOnlyOnePlacement) {
  // The same id in two different placements is legal (that is how copies
  // accumulate reliability); the epoch-stamped scratch must reset between
  // placements.
  DecompositionPlan plan;
  for (int i = 0; i < 10; ++i) plan.Add(3, 1, {0, 1, 2});
  plan.Add(1, 3, {3});
  auto report = ValidatePlan(plan, task_, profile_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);
}

TEST_F(PlanValidatorTest, LargePlanValidatesInLinearTime) {
  // Satellite regression: 10^5 placements over 10^5 tasks must validate in
  // one pass -- the old per-placement unordered_set made this rehash-bound.
  // Generous wall bound (seconds, not minutes) so the test only trips on a
  // complexity regression, not on a slow machine.
  constexpr size_t kTasks = 100'000;
  auto task = CrowdsourcingTask::Homogeneous(kTasks, 0.95);
  ASSERT_TRUE(task.ok());
  DecompositionPlan plan;
  plan.Reserve(kTasks, 3 * kTasks);
  for (size_t i = 0; i < kTasks; i += 3) {
    const TaskId a = static_cast<TaskId>(i);
    const TaskId b = static_cast<TaskId>((i + 1) % kTasks);
    const TaskId c = static_cast<TaskId>((i + 2) % kTasks);
    plan.Add(3, 2, {a, b, c});
  }
  // Every task sits in one 3-bin posted twice: 2 * w(0.8) = 3.22 clears
  // the 0.95 threshold (2.996).
  const auto start = std::chrono::steady_clock::now();
  auto report = ValidatePlan(plan, *task, profile_);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);
  EXPECT_LT(seconds, 5.0) << "validation is no longer linear";
}

}  // namespace
}  // namespace slade
