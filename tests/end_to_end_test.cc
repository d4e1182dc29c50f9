// Integration tests across the whole stack: simulate the platform, probe
// and calibrate a bin profile, solve with every algorithm, validate, and
// execute the plans back on the platform -- the full life of a large-scale
// crowdsourcing task.

#include <numeric>

#include <gtest/gtest.h>

#include "binmodel/calibration.h"
#include "engine/answer_collector.h"
#include "simulator/probe_runner.h"
#include "solver/plan_validator.h"
#include "solver/solver.h"
#include "workload/workload.h"

namespace slade {
namespace {

/// Posts `plan` (ids addressing `truth` directly) and returns the measured
/// positive recall; `*paid` receives the incentives paid.
Result<double> ExecuteForRecall(Platform& platform,
                                const DecompositionPlan& plan,
                                const BinProfile& profile,
                                const std::vector<bool>& truth,
                                double* paid) {
  std::vector<TaskId> ids(truth.size());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  AnswerCollector collector;
  SLADE_RETURN_NOT_OK(SimulatedDispatcher(platform, /*pool=*/nullptr)
                          .Dispatch(plan, profile, ids, truth, &collector));
  *paid = collector.stats().platform_cost;
  return PositiveRecall(collector.TakeAnswers(), truth);
}

TEST(EndToEndTest, ProbeCalibrateSolveExecute) {
  // 1. Stand up the platform.
  PlatformConfig config;
  config.model = JellyModel();
  config.seed = 2024;
  config.skill_sigma = 0.0;
  Platform platform(config);

  // 2. Probe it with ground-truth bins and calibrate a profile.
  ProbePlan probes;
  probes.cardinalities = {1, 2, 4, 8, 12, 16, 20};
  probes.bins_per_cardinality = 120;
  probes.assignments_per_bin = 3;
  auto observations = RunProbes(platform, probes);
  ASSERT_TRUE(observations.ok());
  auto profile =
      CalibrateProfile(*observations, 20, CalibrationMethod::kRegression);
  ASSERT_TRUE(profile.ok());

  // 3. Solve a 5000-task instance at t=0.9 on the calibrated profile.
  auto task = CrowdsourcingTask::Homogeneous(5000, 0.9);
  auto solver = MakeSolver(SolverKind::kOpq);
  auto plan = solver->Solve(*task, *profile);
  ASSERT_TRUE(plan.ok());
  auto report = ValidatePlan(*plan, *task, *profile);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->feasible);

  // 4. Execute the plan on the same platform and measure recall.
  std::vector<bool> truth(5000);
  Xoshiro256 rng(5);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.NextBernoulli(0.3);
  }
  double paid = 0.0;
  auto recall = ExecuteForRecall(platform, *plan, *profile, truth, &paid);
  ASSERT_TRUE(recall.ok());
  // Calibration error can push the realized reliability slightly below
  // target; it must land in the right neighbourhood.
  EXPECT_GE(*recall, 0.87);
  EXPECT_NEAR(paid, plan->TotalCost(*profile), 1e-9);
}

TEST(EndToEndTest, AllSolversProduceExecutablePlansOnSmicWorkload) {
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;
  auto workload = MakeHeterogeneousWorkload(DatasetKind::kSmic, 800, spec,
                                            15, 99);
  ASSERT_TRUE(workload.ok());

  PlatformConfig config;
  config.model = SmicModel();
  config.seed = 7;
  Platform platform(config);
  std::vector<bool> truth(800, true);

  for (SolverKind kind : {SolverKind::kGreedy, SolverKind::kOpqExtended,
                          SolverKind::kBaseline}) {
    auto solver = MakeSolver(kind);
    auto plan = solver->Solve(workload->task, workload->profile);
    ASSERT_TRUE(plan.ok()) << SolverKindName(kind);
    auto report = ValidatePlan(*plan, workload->task, workload->profile);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->feasible) << SolverKindName(kind);

    double paid = 0.0;
    auto recall =
        ExecuteForRecall(platform, *plan, workload->profile, truth, &paid);
    ASSERT_TRUE(recall.ok()) << SolverKindName(kind);
    // SMIC thresholds ~N(0.9, 0.03): recall should land near 0.9+.
    EXPECT_GE(*recall, 0.85) << SolverKindName(kind);
  }
}

TEST(EndToEndTest, CostOrderingMatchesThePaperOnDefaults) {
  // Section 7.1 conclusion: "OPQ-Based is both more effective and
  // efficient than the other two. Baseline is the least effective."
  // Check the cost ordering OPQ <= Greedy <= Baseline on a reduced-size
  // version of the default homogeneous workload.
  auto workload = MakeHomogeneousWorkload(DatasetKind::kJelly, 4000, 0.9,
                                          20);
  ASSERT_TRUE(workload.ok());
  double costs[3];
  int i = 0;
  for (SolverKind kind : {SolverKind::kOpq, SolverKind::kGreedy,
                          SolverKind::kBaseline}) {
    auto plan = MakeSolver(kind)->Solve(workload->task, workload->profile);
    ASSERT_TRUE(plan.ok());
    costs[i++] = plan->TotalCost(workload->profile);
  }
  EXPECT_LE(costs[0], costs[1] * 1.02);  // OPQ <= Greedy (2% tolerance)
  EXPECT_LE(costs[0], costs[2] * 1.02);  // OPQ <= Baseline
}

TEST(EndToEndTest, ReliabilityIsMonotoneInSpend) {
  // Economics sanity: raising the threshold raises both planned cost and
  // measured recall.
  const BinProfile profile = BuildProfile(JellyModel(), 20).ValueOrDie();
  auto solver = MakeSolver(SolverKind::kOpq);
  double prev_cost = 0.0;
  for (double t : {0.85, 0.9, 0.95, 0.99}) {
    auto task = CrowdsourcingTask::Homogeneous(2000, t);
    auto plan = solver->Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    const double cost = plan->TotalCost(profile);
    EXPECT_GE(cost, prev_cost - 1e-9) << "t=" << t;
    prev_cost = cost;
  }
}

}  // namespace
}  // namespace slade
