#include "solver/plan.h"

#include <gtest/gtest.h>

namespace slade {
namespace {

TEST(PlanTest, EmptyPlan) {
  DecompositionPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.TotalBinInstances(), 0u);
  EXPECT_DOUBLE_EQ(plan.TotalCost(BinProfile::PaperExample()), 0.0);
}

TEST(PlanTest, TotalCostSumsCopies) {
  const BinProfile p = BinProfile::PaperExample();
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});  // 2 * 0.24
  plan.Add(1, 1, {3});        // 0.10
  EXPECT_NEAR(plan.TotalCost(p), 0.58, 1e-12);
  EXPECT_EQ(plan.TotalBinInstances(), 3u);
}

TEST(PlanTest, ZeroCopiesIsIgnored) {
  DecompositionPlan plan;
  plan.Add(1, 0, {0});
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.num_task_ids(), 0u);
}

TEST(PlanTest, BinCountsIndexedByCardinality) {
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});
  plan.Add(3, 1, {3});
  plan.Add(1, 5, {0});
  auto counts = plan.BinCounts(3);
  EXPECT_EQ(counts[1], 5u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 3u);
}

TEST(PlanTest, PerTaskReliabilityMatchesEquation1) {
  const BinProfile p = BinProfile::PaperExample();
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});  // tasks 0-2: two bins of r=0.8
  plan.Add(2, 1, {2, 3});     // task 2 also one bin of r=0.85
  auto rel = plan.PerTaskReliability(p, 4);
  EXPECT_NEAR(rel[0], 0.96, 1e-12);                 // 1 - 0.2^2
  EXPECT_NEAR(rel[2], 1.0 - 0.2 * 0.2 * 0.15, 1e-12);
  EXPECT_NEAR(rel[3], 0.85, 1e-12);
  EXPECT_DOUBLE_EQ(plan.PerTaskReliability(p, 5)[4], 0.0);  // unplaced
}

TEST(PlanTest, AppendColumnsMergesPlacements) {
  DecompositionPlan a, b;
  a.Add(1, 1, {0});
  b.Add(2, 3, {1, 2});
  a.AppendColumns(b);
  EXPECT_EQ(a.num_placements(), 2u);
  EXPECT_EQ(a.TotalBinInstances(), 4u);
}

TEST(PlanTest, SummaryMentionsBinCountsAndCost) {
  const BinProfile p = BinProfile::PaperExample();
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});
  plan.Add(1, 2, {3});
  const std::string s = plan.Summary(p);
  EXPECT_NE(s.find("2 x b1"), std::string::npos);
  EXPECT_NE(s.find("2 x b3"), std::string::npos);
  EXPECT_NE(s.find("cost=0.68"), std::string::npos);
}

}  // namespace
}  // namespace slade
