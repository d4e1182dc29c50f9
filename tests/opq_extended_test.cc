#include "solver/opq_extended_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "binmodel/profile_model.h"
#include "common/random.h"
#include "solver/opq_set_builder.h"
#include "solver/opq_solver.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

TEST(OpqSetBuilderTest, ReproducesExample10Intervals) {
  // thetas 0.69, 0.92, 1.61(paper text; 1.20 by direct computation), 1.97:
  // alpha = floor(log2 0.69) = -1; uppers = {1, theta_max}.
  const BinProfile profile = BinProfile::PaperExample();
  const double theta_min = LogReduction(0.5);   // 0.693
  const double theta_max = LogReduction(0.86);  // 1.966
  auto set = BuildOpqSet(profile, theta_min, theta_max);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->size(), 2u);
  EXPECT_NEAR(set->upper(0), 1.0, 1e-12);
  EXPECT_NEAR(set->upper(1), theta_max, 1e-12);

  // OPQ_0 built at t = 1 - e^{-1} = 0.632 has the Table 4 frontier.
  EXPECT_EQ(set->queue(0).size(), 3u);
  EXPECT_NEAR(set->queue(0).front().unit_cost(), 0.08, 1e-12);
  // OPQ_1 built at t ~ 0.86 has only {1 x b1} (Table 5).
  EXPECT_EQ(set->queue(1).size(), 1u);
  EXPECT_NEAR(set->queue(1).front().unit_cost(), 0.10, 1e-12);
}

TEST(OpqSetBuilderTest, GroupAssignment) {
  const BinProfile profile = BinProfile::PaperExample();
  auto set = BuildOpqSet(profile, LogReduction(0.5), LogReduction(0.86));
  ASSERT_TRUE(set.ok());
  // Example 11: a1 (0.69) and a2 (0.92) -> S0; a3 (1.20) and a4 (1.97)
  // -> S1.
  EXPECT_EQ(*set->GroupOf(LogReduction(0.5)), 0u);
  EXPECT_EQ(*set->GroupOf(LogReduction(0.6)), 0u);
  EXPECT_EQ(*set->GroupOf(LogReduction(0.7)), 1u);
  EXPECT_EQ(*set->GroupOf(LogReduction(0.86)), 1u);
  EXPECT_TRUE(set->GroupOf(10.0).status().IsOutOfRange());
}

TEST(OpqSetBuilderTest, GroupIndexOrEndIsLowerBound) {
  // The branch-free lookup core returns std::lower_bound's index for every
  // bound count, including thetas at, just inside and just beyond a bound
  // (the kRelEps tolerance) and past the last one.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t count = 1; count <= 33; ++count) {
    std::vector<double> uppers(count);
    for (double& u : uppers) u = 0.01 + 10.0 * unit(rng);
    std::sort(uppers.begin(), uppers.end());
    std::vector<double> thetas = {0.0, uppers.back() + 1.0};
    for (double u : uppers) {
      for (double d : {-2 * kRelEps, -kRelEps / 2, 0.0, kRelEps / 2,
                       2 * kRelEps}) {
        thetas.push_back(u + d);
      }
    }
    for (int i = 0; i < 200; ++i) thetas.push_back(11.0 * unit(rng));
    for (double theta : thetas) {
      const size_t expected = static_cast<size_t>(
          std::lower_bound(uppers.begin(), uppers.end(), theta - kRelEps) -
          uppers.begin());
      ASSERT_EQ(GroupIndexOrEnd(uppers.data(), count, theta), expected)
          << "count " << count << " theta " << theta;
      auto group = GroupIndexOf(uppers, theta);
      ASSERT_EQ(group.ok(), expected < count);
      if (group.ok()) {
        EXPECT_EQ(*group, expected);
      }
    }
  }
}

TEST(OpqSetBuilderTest, ExactPowerOfTwoThetaHandled) {
  const BinProfile profile = BinProfile::PaperExample();
  // theta_min == theta_max == 2 exactly: loop degenerates, fallback queue.
  auto set = BuildOpqSet(profile, 2.0, 2.0);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->size(), 1u);
  EXPECT_EQ(*set->GroupOf(2.0), 0u);
}

TEST(OpqSetBuilderTest, RejectsBadRange) {
  const BinProfile profile = BinProfile::PaperExample();
  EXPECT_FALSE(BuildOpqSet(profile, 0.0, 1.0).ok());
  EXPECT_FALSE(BuildOpqSet(profile, 2.0, 1.0).ok());
}

TEST(OpqExtendedTest, ReproducesExample11) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::FromThresholds({0.5, 0.6, 0.7, 0.86});
  OpqExtendedSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->TotalCost(profile), 0.38, 1e-9);
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(OpqExtendedTest, DegeneratesToOpqBasedOnHomogeneousInput) {
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(100, 0.9);
  OpqExtendedSolver extended;
  OpqSolver homogeneous;
  auto a = extended.Solve(*task, profile);
  auto b = homogeneous.Solve(*task, profile);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->TotalCost(profile), b->TotalCost(profile), 1e-9);
}

class OpqExtendedFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(OpqExtendedFeasibilityTest, RandomHeterogeneousInstances) {
  const auto [n, seed] = GetParam();
  const BinProfile profile = BuildProfile(JellyModel(), 15).ValueOrDie();
  Xoshiro256 rng(static_cast<uint64_t>(seed));
  std::vector<double> thresholds(n);
  for (auto& t : thresholds) t = rng.NextDouble(0.55, 0.99);
  auto task = CrowdsourcingTask::FromThresholds(thresholds);
  OpqExtendedSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible)
      << "n=" << n << " seed=" << seed << " margin "
      << report->worst_log_margin;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpqExtendedFeasibilityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 9u, 64u, 500u),
                       ::testing::Values(1, 2, 3)));

TEST(OpqExtendedTest, WideThresholdSpreadBuildsMultipleQueues) {
  const BinProfile profile = BinProfile::PaperExample();
  // Spread thetas across ~4 octaves: 0.51 -> theta 0.71; 0.999 -> 6.9.
  auto set = BuildOpqSet(profile, LogReduction(0.51), LogReduction(0.999));
  ASSERT_TRUE(set.ok());
  EXPECT_GE(set->size(), 4u);
  // Uppers are non-decreasing and the last covers theta_max.
  for (size_t i = 1; i < set->size(); ++i) {
    EXPECT_GE(set->upper(i), set->upper(i - 1));
  }
  EXPECT_NEAR(set->upper(set->size() - 1), LogReduction(0.999), 1e-9);
}

TEST(OpqExtendedTest, TasksAtGroupBoundariesStayFeasible) {
  // Thresholds sitting exactly on 2^j boundaries (theta = 1, 2) must not
  // fall between groups.
  const BinProfile profile = BinProfile::PaperExample();
  const double t1 = InverseLogReduction(1.0);
  const double t2 = InverseLogReduction(2.0);
  auto task = CrowdsourcingTask::FromThresholds({t1, t2, 0.9});
  OpqExtendedSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

}  // namespace
}  // namespace slade
