#include "solver/opq_extended_solver.h"

#include "solver/opq_set_builder.h"
#include "solver/opq_solver.h"

namespace slade {

Result<DecompositionPlan> OpqExtendedSolver::Solve(
    const CrowdsourcingTask& task, const BinProfile& profile) {
  const double theta_min = LogReduction(task.min_threshold());
  const double theta_max = LogReduction(task.max_threshold());

  OpqBuildOptions build_options;
  build_options.node_budget = options_.opq_node_budget;
  SLADE_ASSIGN_OR_RETURN(
      OpqSet set, BuildOpqSet(profile, theta_min, theta_max, build_options));

  // Algorithm 5 lines 5-7: route each atomic task to the interval whose
  // upper bound covers its log threshold.
  std::vector<std::vector<TaskId>> groups(set.size());
  for (size_t i = 0; i < task.size(); ++i) {
    SLADE_ASSIGN_OR_RETURN(
        size_t g, set.GroupOf(task.theta(static_cast<TaskId>(i))));
    groups[g].push_back(static_cast<TaskId>(i));
  }

  // Lines 8-16: per-group Algorithm 3 runs, merged into one plan.
  DecompositionPlan plan;
  for (size_t g = 0; g < set.size(); ++g) {
    if (groups[g].empty()) continue;
    SLADE_RETURN_NOT_OK(RunOpqAssignment(set.queue(g), groups[g].data(),
                                         groups[g].size(), profile, &plan));
  }
  return plan;
}

}  // namespace slade
