// Micro-expression screening (paper Example 3 / Section 2): the full
// requester pipeline against the simulated SMIC platform.
//
//   1. post ground-truth probe bins at several cardinalities;
//   2. calibrate a bin profile from the probe answers (counting vs
//      power-law regression, Section 3.1);
//   3. decompose a 5,000-image screening task at t = 0.9 (OPQ-Based);
//   4. execute the plan on the platform and measure the realized recall.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "binmodel/calibration.h"
#include "common/table_printer.h"
#include "engine/answer_collector.h"
#include "simulator/probe_runner.h"
#include "solver/opq_solver.h"
#include "solver/plan_validator.h"

int main() {
  using namespace slade;

  PlatformConfig config;
  config.model = SmicModel();
  config.seed = 90210;
  config.skill_sigma = 0.2;
  Platform platform(config);

  // --- 1. probe ---------------------------------------------------------
  ProbePlan probes;
  probes.cardinalities = {1, 2, 4, 6, 8, 12, 16, 20};
  probes.bins_per_cardinality = 80;
  probes.assignments_per_bin = 3;
  auto observations = RunProbes(platform, probes);
  if (!observations.ok()) {
    std::cerr << observations.status().ToString() << "\n";
    return 1;
  }
  std::printf("Posted %llu probe bins (spent %.2f USD so far)\n",
              static_cast<unsigned long long>(platform.bins_posted()),
              platform.total_spent());

  TablePrinter probe_table({"l", "answers", "correct", "r(count)",
                            "r(model truth)"});
  for (const ProbeObservation& obs : *observations) {
    probe_table.AddRow(
        {std::to_string(obs.cardinality), std::to_string(obs.total),
         std::to_string(obs.correct),
         TablePrinter::FormatDouble(CountingEstimate(obs), 4),
         TablePrinter::FormatDouble(
             ModelConfidence(config.model, obs.cardinality, obs.bin_cost),
             4)});
  }
  probe_table.Print(std::cout);

  // --- 2. calibrate ------------------------------------------------------
  auto profile =
      CalibrateProfile(*observations, 20, CalibrationMethod::kRegression);
  if (!profile.ok()) {
    std::cerr << profile.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\nCalibrated profile (power-law regression over probes):\n"
            << profile->ToString();

  // --- 3. decompose ------------------------------------------------------
  auto task = CrowdsourcingTask::Homogeneous(5'000, 0.9);
  OpqSolver solver;
  auto plan = solver.Solve(*task, *profile);
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }
  auto report = ValidatePlan(*plan, *task, *profile);
  std::printf("\nDecomposition: %s\n", plan->Summary(*profile).c_str());
  std::printf("Planned reliability feasible: %s (worst log margin %.4f)\n",
              report->feasible ? "yes" : "NO", report->worst_log_margin);

  // --- 4. execute --------------------------------------------------------
  std::vector<bool> truth(task->size());
  Xoshiro256 rng(7);
  size_t positives = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.NextBernoulli(0.25);  // 25% of faces show the expression
    positives += truth[i];
  }
  std::vector<TaskId> ids(task->size());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  AnswerCollector collector;
  const Status posted = SimulatedDispatcher(platform, /*pool=*/nullptr)
                            .Dispatch(*plan, *profile, ids, truth,
                                      &collector);
  if (!posted.ok()) {
    std::cerr << posted.ToString() << "\n";
    return 1;
  }
  const DispatchStats executed = collector.stats();
  const double recall = PositiveRecall(collector.TakeAnswers(), truth);
  std::printf(
      "\nExecuted %llu bins for %.2f USD; %lld/%zu positive faces "
      "detected\n",
      static_cast<unsigned long long>(executed.bins_posted),
      executed.platform_cost,
      std::llround(recall * static_cast<double>(positives)), positives);
  std::printf("Measured recall %.4f vs target reliability %.2f\n", recall,
              0.9);
  std::printf("(calibration noise and worker-skill spread explain the "
              "difference)\n");
  return 0;
}
