#include "simulator/executor.h"

namespace slade {

Result<ExecutionReport> ExecutePlan(Platform& platform,
                                    const DecompositionPlan& plan,
                                    const BinProfile& profile,
                                    const std::vector<bool>& ground_truth) {
  const size_t n = ground_truth.size();
  ExecutionReport report;
  report.detected.assign(n, false);

  for (size_t pi = 0; pi < plan.num_placements(); ++pi) {
    const DecompositionPlan::PlacementView placement = plan.view(pi);
    if (placement.num_tasks == 0) continue;
    const TaskBin& bin = profile.bin(placement.cardinality);
    std::vector<bool> truth;
    truth.reserve(placement.num_tasks);
    for (uint32_t k = 0; k < placement.num_tasks; ++k) {
      const TaskId id = placement.tasks[k];
      if (id >= n) {
        return Status::OutOfRange("plan references task " +
                                  std::to_string(id) + " but n=" +
                                  std::to_string(n));
      }
      truth.push_back(ground_truth[id]);
    }
    for (uint32_t copy = 0; copy < placement.copies; ++copy) {
      SLADE_ASSIGN_OR_RETURN(
          BinOutcome outcome,
          platform.PostBin(placement.cardinality, bin.cost, truth,
                           /*assignments=*/1));
      ++report.bins_posted;
      if (outcome.overtime) ++report.overtime_bins;
      report.total_cost += bin.cost;
      const AssignmentOutcome& assignment = outcome.assignments.front();
      for (uint32_t i = 0; i < placement.num_tasks; ++i) {
        if (assignment.answers[i]) {
          report.detected[placement.tasks[i]] = true;
        }
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!ground_truth[i]) continue;
    ++report.positives;
    if (!report.detected[i]) ++report.false_negatives;
  }
  report.positive_recall =
      report.positives == 0
          ? 1.0
          : 1.0 - static_cast<double>(report.false_negatives) /
                      static_cast<double>(report.positives);
  return report;
}

}  // namespace slade
