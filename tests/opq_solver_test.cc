#include "solver/opq_solver.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "binmodel/profile_model.h"
#include "plan_signature.h"
#include "solver/exact_solver.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

TEST(OpqSolverTest, ReproducesPaperExample9) {
  // 4 tasks, t=0.95: OPQ uses {2 x b3} on a1..a3 and {2 x b1} on a4,
  // total 0.68.
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(4, 0.95);
  OpqSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->TotalCost(profile), 0.68, 1e-9);
  auto counts = plan->BinCounts(3);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(OpqSolverTest, RejectsHeterogeneousInput) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::FromThresholds({0.9, 0.95});
  OpqSolver solver;
  EXPECT_TRUE(
      solver.Solve(*task, profile).status().IsInvalidArgument());
}

TEST(OpqSolverTest, ExactlyOptimalOnLcmMultiples) {
  // Corollary 1: when n = k * OPQ_1.LCM the plan cost is exactly
  // n * OPQ_1.UC.
  const BinProfile profile = BinProfile::PaperExample();
  auto opq = BuildOpq(profile, 0.95);
  ASSERT_TRUE(opq.ok());
  const uint64_t lcm = opq->front().lcm();  // 3
  for (uint64_t k : {1u, 2u, 5u, 40u}) {
    const size_t n = static_cast<size_t>(k * lcm);
    auto task = CrowdsourcingTask::Homogeneous(n, 0.95);
    OpqSolver solver;
    auto plan = solver.Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    EXPECT_NEAR(plan->TotalCost(profile),
                static_cast<double>(n) * opq->front().unit_cost(), 1e-9)
        << "n=" << n;
  }
}

TEST(OpqSolverTest, LowerBoundNeverViolated) {
  // OPT >= n * OPQ_1.UC (Lemma 2 / Theorem 2 proof); our plan must sit
  // between the bound and log2(n)+1 times it.
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  for (size_t n : {1u, 2u, 3u, 5u, 17u, 100u, 1001u}) {
    auto task = CrowdsourcingTask::Homogeneous(n, 0.9);
    auto opq = BuildOpq(profile, 0.9);
    ASSERT_TRUE(opq.ok());
    OpqSolver solver;
    auto plan = solver.Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    const double cost = plan->TotalCost(profile);
    const double lb = static_cast<double>(n) * opq->front().unit_cost();
    EXPECT_GE(cost, lb - 1e-9) << "n=" << n;
    // Theorem 2 assumes n >= OPQ_1.LCM ("j1 = 1 for a large-scale task");
    // below that, bins cannot be shared and the LP bound is unreachable.
    if (n >= opq->front().lcm()) {
      const double ratio_bound = std::log2(static_cast<double>(n)) + 1.0;
      EXPECT_LE(cost, lb * ratio_bound + 1e-9) << "n=" << n;
    }
  }
}

class OpqFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint32_t>> {
};

TEST_P(OpqFeasibilityTest, PlansAlwaysFeasible) {
  const auto [n, t, m] = GetParam();
  const BinProfile profile = BuildProfile(JellyModel(), m).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(n, t);
  OpqSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible)
      << "n=" << n << " t=" << t << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpqFeasibilityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 7u, 100u, 999u),
                       ::testing::Values(0.87, 0.95, 0.97),
                       ::testing::Values(1u, 6u, 20u)));

TEST(OpqSolverTest, NeverWorseThanExactOnTinyInstances) {
  // Sanity floor: for n=1..3 on the paper profile, OPQ-Based must not
  // beat the exact optimum (it may match it).
  const BinProfile profile = BinProfile::PaperExample();
  ExactSmallSolver exact;
  OpqSolver opq;
  for (size_t n = 1; n <= 3; ++n) {
    auto task = CrowdsourcingTask::Homogeneous(n, 0.95);
    auto opq_plan = opq.Solve(*task, profile);
    auto exact_plan = exact.Solve(*task, profile);
    ASSERT_TRUE(opq_plan.ok());
    ASSERT_TRUE(exact_plan.ok());
    EXPECT_GE(opq_plan->TotalCost(profile),
              exact_plan->TotalCost(profile) - 1e-9)
        << "n=" << n;
  }
}

TEST(OpqSolverTest, PaddingPathProducesFeasiblePlans) {
  // Pick n so that leftovers trigger the Cost_prev padding branch:
  // with the Table-1 profile, the queue LCMs are {3, 2, 1}; n = 3k+1
  // leaves a remainder after the front element.
  const BinProfile profile = BinProfile::PaperExample();
  for (size_t n : {4u, 7u, 10u, 31u}) {
    auto task = CrowdsourcingTask::Homogeneous(n, 0.95);
    OpqSolver solver;
    auto plan = solver.Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible) << n;
  }
}

TEST(OpqSolverTest, LcmAlignedCutsConcatenateToTheWholeRange) {
  // Cut the ids at multiples of L, the front element's LCM, every part but
  // the last holding whole L-blocks and the last at least one block plus
  // the remainder: Algorithm 3 over the parts, in order, must append the
  // whole range's placements, and a cost carried across the parts must be
  // the whole plan's to the bit.
  std::mt19937_64 rng(0x5EED'C075ull);
  int cut_sets = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const DatasetKind dataset =
        rng() % 2 == 0 ? DatasetKind::kJelly : DatasetKind::kSmic;
    const uint32_t m = 2 + static_cast<uint32_t>(rng() % 11);
    const BinProfile profile = BuildProfile(MakeModel(dataset), m).ValueOrDie();
    const double t = 0.6 + 0.38 * static_cast<double>(rng() % 1000) / 1000.0;
    auto queue = BuildOpq(profile, t);
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();

    const size_t n = 1 + rng() % 400;
    std::vector<TaskId> ids(n);
    std::iota(ids.begin(), ids.end(), static_cast<TaskId>(rng() % 1000));
    DecompositionPlan whole;
    ASSERT_TRUE(RunOpqAssignment(*queue, ids.data(), n, profile, &whole).ok());
    const std::string expected = PlanSignature(whole);

    const Combination* front = OpqFrontElement(*queue, n);
    ASSERT_NE(front, nullptr);
    const size_t lcm = static_cast<size_t>(front->lcm());
    const size_t blocks = n / lcm;
    ASSERT_GE(blocks, 1u);
    // Each of the blocks - 1 boundaries between blocks may be a cut: every
    // subset when there are few, else a random sample of subsets.
    const size_t boundaries = blocks - 1;
    const bool every = boundaries <= 10;
    const size_t sets = every ? size_t{1} << boundaries : 300;
    for (size_t set = 0; set < sets; ++set) {
      std::vector<size_t> cuts = {0};
      for (size_t j = 1; j <= boundaries; ++j) {
        const bool cut = every ? ((set >> (j - 1)) & 1) != 0 : rng() % 2 == 0;
        if (cut) cuts.push_back(j * lcm);
      }
      cuts.push_back(n);
      DecompositionPlan parts;
      double cost = 0.0;
      for (size_t c = 0; c + 1 < cuts.size(); ++c) {
        const TaskId* part_ids = ids.data() + cuts[c];
        const size_t len = cuts[c + 1] - cuts[c];
        DecompositionPlan part;
        ASSERT_TRUE(
            RunOpqAssignment(*queue, part_ids, len, profile, &part).ok());
        cost = part.TotalCost(profile, cost);
        parts.AppendColumns(part);
      }
      ASSERT_EQ(PlanSignature(parts), expected)
          << "trial " << trial << " n=" << n << " L=" << lcm << " set "
          << set;
      EXPECT_EQ(cost, whole.TotalCost(profile));
      ++cut_sets;
    }
  }
  EXPECT_GT(cut_sets, 1000);
}

}  // namespace
}  // namespace slade
