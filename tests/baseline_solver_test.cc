#include "solver/baseline_solver.h"

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "common/random.h"
#include "plan_signature.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

TEST(BaselineSolverTest, SolvesPaperExampleFeasibly) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(4, 0.95);
  BaselineSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);
  // Feasible cost floor: 4 tasks each need theta(0.95)=2.996; the
  // cheapest per-theta rate in Table 1 is b1 (0.0434/unit) -> >= 0.52.
  EXPECT_GE(report->total_cost, 0.52);
}

class BaselineFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(BaselineFeasibilityTest, PlansAlwaysFeasible) {
  const auto [n, t] = GetParam();
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(n, t);
  BaselineSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible) << "n=" << n << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineFeasibilityTest,
    ::testing::Combine(::testing::Values(1u, 3u, 48u, 49u, 150u),
                       ::testing::Values(0.87, 0.95)));

TEST(BaselineSolverTest, HeterogeneousThresholdsHandled) {
  const BinProfile profile = BuildProfile(JellyModel(), 8).ValueOrDie();
  Xoshiro256 rng(3);
  std::vector<double> thresholds(120);
  for (auto& t : thresholds) t = rng.NextDouble(0.6, 0.97);
  auto task = CrowdsourcingTask::FromThresholds(thresholds);
  BaselineSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(BaselineSolverTest, DeterministicForFixedSeed) {
  const BinProfile profile = BuildProfile(JellyModel(), 6).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(60, 0.9);
  SolverOptions options;
  options.seed = 1234;
  BaselineSolver a(options), b(options);
  auto pa = a.Solve(*task, profile);
  auto pb = b.Solve(*task, profile);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa->TotalCost(profile), pb->TotalCost(profile));
  EXPECT_EQ(pa->TotalBinInstances(), pb->TotalBinInstances());
}

TEST(BaselineSolverTest, ChunkReplicationMatchesFeasibility) {
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(200, 0.9);
  SolverOptions options;
  options.baseline_reuse_homogeneous_chunks = true;
  BaselineSolver solver(options);
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(BaselineSolverTest, SmallChunkSizeStillWorks) {
  const BinProfile profile = BinProfile::PaperExample();
  SolverOptions options;
  options.baseline_chunk_size = 2;
  auto task = CrowdsourcingTask::Homogeneous(7, 0.9);
  BaselineSolver solver(options);
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);
}

TEST(BaselineSolverTest, ParallelChunksMatchSerialExactly) {
  // Chunk seeds depend only on the chunk index and plans are merged in
  // chunk order, so the thread count must not change the plan.
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  Xoshiro256 rng(77);
  std::vector<double> thresholds(300);
  for (auto& t : thresholds) t = rng.NextDouble(0.7, 0.97);
  auto task = CrowdsourcingTask::FromThresholds(thresholds);

  SolverOptions serial_options;
  serial_options.baseline_threads = 0;
  SolverOptions parallel_options;
  parallel_options.baseline_threads = 4;
  BaselineSolver serial(serial_options), parallel(parallel_options);
  auto ps = serial.Solve(*task, profile);
  auto pp = parallel.Solve(*task, profile);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(PlanSignature(*ps), PlanSignature(*pp));
}

TEST(BaselineSolverTest, CostIsAboveTheLpFloorPerTask) {
  // Sanity: baseline cost per task cannot be below the single-task LP
  // floor theta * min_l (c_l/l / w_l).
  const BinProfile profile = BuildProfile(JellyModel(), 10).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(96, 0.9);
  BaselineSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  double min_rate = 1e18;
  for (uint32_t l = 1; l <= 10; ++l) {
    min_rate = std::min(min_rate, profile.bin(l).cost_per_task() /
                                      profile.bin(l).log_weight());
  }
  const double floor = 96 * LogReduction(0.9) * min_rate;
  EXPECT_GE(plan->TotalCost(profile), floor - 1e-9);
}

}  // namespace
}  // namespace slade
