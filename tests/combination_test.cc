#include "solver/combination.h"

#include <gtest/gtest.h>

#include "plan_signature.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

TEST(CombinationTest, PaperExample6) {
  // Comb = {3 x b1, 2 x b2, 1 x b3}: LCM = 6,
  // UC = 3*0.1 + 2*0.18/2 + 1*0.24/3 = 0.56.
  const BinProfile profile = BinProfile::PaperExample();
  auto comb =
      Combination::Create({{1, 3}, {2, 2}, {3, 1}}, profile);
  ASSERT_TRUE(comb.ok());
  EXPECT_EQ(comb->lcm(), 6u);
  EXPECT_NEAR(comb->unit_cost(), 0.56, 1e-12);
  EXPECT_NEAR(comb->block_cost(), 3.36, 1e-12);  // 0.56 * 6 (Example 6)
}

TEST(CombinationTest, LogWeightSumsParts) {
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{3, 2}}, profile);
  ASSERT_TRUE(comb.ok());
  EXPECT_NEAR(comb->log_weight(), 2 * profile.bin(3).log_weight(), 1e-12);
}

TEST(CombinationTest, RejectsInvalidParts) {
  const BinProfile profile = BinProfile::PaperExample();
  EXPECT_FALSE(Combination::Create({}, profile).ok());
  EXPECT_FALSE(Combination::Create({{4, 1}}, profile).ok());
  EXPECT_FALSE(Combination::Create({{0, 1}}, profile).ok());
  EXPECT_FALSE(Combination::Create({{1, 0}}, profile).ok());
  EXPECT_FALSE(Combination::Create({{1, 1}, {1, 2}}, profile).ok());
}

TEST(CombinationTest, ExpandFullBlockMatchesFigure5) {
  // Figure 5: 6 tasks through {3 x b1, 2 x b2, 1 x b3} means each task
  // appears in 3 singleton bins, 2 pair bins and 1 triple bin.
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{1, 3}, {2, 2}, {3, 1}}, profile);
  std::vector<TaskId> ids = {0, 1, 2, 3, 4, 5};
  DecompositionPlan plan;
  const double cost = comb->ExpandInto(ids.data(), 6, profile, &plan);
  EXPECT_NEAR(cost, comb->block_cost(), 1e-12);

  auto counts = plan.BinCounts(3);
  EXPECT_EQ(counts[1], 18u);  // 6 groups x 3 copies
  EXPECT_EQ(counts[2], 6u);   // 3 groups x 2 copies
  EXPECT_EQ(counts[3], 2u);   // 2 groups x 1 copy

  // Every task is in exactly 6 bins and its reliability is the
  // combination's log weight.
  auto task = CrowdsourcingTask::Homogeneous(6, 0.5);
  auto report = ValidatePlan(plan, *task, profile);
  ASSERT_TRUE(report.ok());
  auto rel = plan.PerTaskReliability(profile, 6);
  for (double r : rel) {
    EXPECT_NEAR(r, InverseLogReduction(comb->log_weight()), 1e-12);
  }
}

TEST(CombinationTest, ExpandPartialBlockStillCoversEveryTask) {
  // Padding path: 4 tasks into an LCM=6 combination. Bins are partially
  // filled but each task still lands in n_k bins per part.
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{2, 1}, {3, 1}}, profile);
  ASSERT_EQ(comb->lcm(), 6u);
  std::vector<TaskId> ids = {10, 11, 12, 13};
  DecompositionPlan plan;
  const double cost = comb->ExpandInto(ids.data(), 4, profile, &plan);
  EXPECT_LT(cost, comb->block_cost());  // padded block is cheaper

  auto rel = plan.PerTaskReliability(profile, 14);
  for (TaskId id : ids) {
    EXPECT_NEAR(rel[id],
                InverseLogReduction(comb->log_weight()), 1e-12);
  }
}

TEST(CombinationTest, ExpandRespectsOffset) {
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{1, 1}}, profile);
  std::vector<TaskId> ids = {5, 6, 7, 8};
  DecompositionPlan plan;
  comb->ExpandInto(ids.data() + 2, 2, profile, &plan);
  EXPECT_EQ(PlanSignature(plan), "1x1:7;|1x1:8;|");
}

TEST(CombinationTest, ExpandBlocksMatchesRepeatedExpand) {
  // The Algorithm 3 bulk path must be placement-for-placement identical to
  // expanding one full block at a time.
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{1, 3}, {2, 2}, {3, 1}}, profile);
  ASSERT_TRUE(comb.ok());
  const size_t lcm = static_cast<size_t>(comb->lcm());
  const uint64_t blocks = 4;
  std::vector<TaskId> ids(lcm * blocks + 3);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TaskId>(i);

  DecompositionPlan bulk, looped;
  const size_t offset = 3;  // stamping must respect the starting offset
  const double bulk_cost =
      comb->ExpandBlocksInto(ids.data() + offset, blocks, profile, &bulk);
  double looped_cost = 0.0;
  for (uint64_t b = 0; b < blocks; ++b) {
    looped_cost +=
        comb->ExpandInto(ids.data() + offset + b * lcm, lcm, profile, &looped);
  }
  EXPECT_NEAR(bulk_cost, looped_cost, 1e-9);
  EXPECT_NEAR(bulk_cost, static_cast<double>(blocks) * comb->block_cost(),
              1e-9);
  EXPECT_EQ(PlanSignature(bulk), PlanSignature(looped));
}

TEST(CombinationTest, ExpandZeroBlocksIsANoop) {
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{2, 1}}, profile);
  std::vector<TaskId> ids = {0, 1};
  DecompositionPlan plan;
  EXPECT_EQ(comb->ExpandBlocksInto(ids.data(), 0, profile, &plan), 0.0);
  EXPECT_TRUE(plan.empty());
}

TEST(CombinationTest, ToStringFormat) {
  const BinProfile profile = BinProfile::PaperExample();
  auto comb = Combination::Create({{3, 2}}, profile);
  EXPECT_NE(comb->ToString().find("2 x b3"), std::string::npos);
  EXPECT_NE(comb->ToString().find("LCM=3"), std::string::npos);
}

}  // namespace
}  // namespace slade
