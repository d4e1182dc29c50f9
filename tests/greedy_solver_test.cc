#include "solver/greedy_solver.h"

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "common/random.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

TEST(GreedySolverTest, ReproducesPaperExample5) {
  // Example 5: 4 tasks, t=0.95, Table 1 bins. The paper's trace ends with
  // plan {a1},{a2},{a3},{a4},{a1,a2,a3},{a4} and total cost 0.74.
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(4, 0.95);
  GreedySolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->TotalCost(profile), 0.74, 1e-9);
  auto counts = plan->BinCounts(3);
  EXPECT_EQ(counts[1], 5u);
  EXPECT_EQ(counts[3], 1u);
  auto report = ValidatePlan(*plan, *task, profile);
  EXPECT_TRUE(report->feasible);
}

TEST(GreedySolverTest, FirstPickMatchesPaperTrace) {
  // The paper's first iteration picks b1 ({a1}) because 0.1/w(0.9)=0.043
  // is the smallest ratio; verify the first placement is a singleton.
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(4, 0.95);
  GreedySolver solver(GreedySolver::Strategy::kNaive);
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->empty());
  EXPECT_EQ(plan->view(0).cardinality, 1u);
}

TEST(GreedySolverTest, SingleTaskUsesCheapestSufficientCombination) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(1, 0.9);
  GreedySolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  EXPECT_TRUE(report->feasible);
  // theta(0.9) == w(0.9): exactly one singleton suffices and greedy's
  // ratio rule picks it.
  EXPECT_NEAR(plan->TotalCost(profile), 0.10, 1e-9);
}

class GreedyStrategyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, double, int>> {};

TEST_P(GreedyStrategyEquivalenceTest, FastMatchesNaive) {
  const auto [n, t, seed] = GetParam();
  const BinProfile profile =
      BuildProfile(JellyModel(), 8).ValueOrDie();

  // Mix of homogeneous and seeded-heterogeneous thresholds.
  Xoshiro256 rng(static_cast<uint64_t>(seed));
  std::vector<double> thresholds(n);
  for (auto& th : thresholds) {
    th = (seed % 2 == 0) ? t : rng.NextDouble(0.7, 0.97);
  }
  auto task = CrowdsourcingTask::FromThresholds(thresholds);
  ASSERT_TRUE(task.ok());

  GreedySolver fast(GreedySolver::Strategy::kFast);
  GreedySolver naive(GreedySolver::Strategy::kNaive);
  auto fast_plan = fast.Solve(*task, profile);
  auto naive_plan = naive.Solve(*task, profile);
  ASSERT_TRUE(fast_plan.ok());
  ASSERT_TRUE(naive_plan.ok());

  // The two strategies make identical decisions, so costs and per-
  // cardinality bin counts agree exactly.
  EXPECT_NEAR(fast_plan->TotalCost(profile),
              naive_plan->TotalCost(profile), 1e-9);
  auto fc = fast_plan->BinCounts(profile.max_cardinality());
  auto nc = naive_plan->BinCounts(profile.max_cardinality());
  EXPECT_EQ(fc, nc);

  EXPECT_TRUE(ValidatePlan(*fast_plan, *task, profile)->feasible);
  EXPECT_TRUE(ValidatePlan(*naive_plan, *task, profile)->feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyStrategyEquivalenceTest,
    ::testing::Values(std::make_tuple(1, 0.9, 0), std::make_tuple(2, 0.9, 1),
                      std::make_tuple(7, 0.95, 2),
                      std::make_tuple(16, 0.9, 3),
                      std::make_tuple(33, 0.85, 4),
                      std::make_tuple(64, 0.97, 5),
                      std::make_tuple(100, 0.9, 6),
                      std::make_tuple(100, 0.9, 7)));

class GreedyFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(GreedyFeasibilityTest, PlansAlwaysFeasible) {
  const auto [t, m] = GetParam();
  const BinProfile profile = BuildProfile(JellyModel(), m).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(257, t);
  GreedySolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible)
      << "t=" << t << " m=" << m
      << " worst margin " << report->worst_log_margin;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyFeasibilityTest,
    ::testing::Combine(::testing::Values(0.87, 0.9, 0.92, 0.95, 0.97),
                       ::testing::Values(1u, 2u, 6u, 13u, 20u)));

TEST(GreedySolverTest, HeterogeneousThresholdsHandled) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::FromThresholds({0.5, 0.6, 0.7, 0.86});
  GreedySolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(GreedySolverTest, BatchingKicksInForLargeHomogeneousInput) {
  // Mostly a performance property: 50k homogeneous tasks should solve
  // near-instantly thanks to run batching. Feasibility is still checked.
  const BinProfile profile = BuildProfile(JellyModel(), 20).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(50'000, 0.9);
  GreedySolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

}  // namespace
}  // namespace slade
