#include "solver/opq_solver.h"

#include <numeric>

#include "common/logging.h"

namespace slade {

const Combination* OpqFrontElement(const OptimalPriorityQueue& queue,
                                   uint64_t n) {
  for (const Combination& e : queue.elements()) {
    if (e.lcm() <= n) return &e;
  }
  return nullptr;
}

Status RunOpqAssignment(const OptimalPriorityQueue& queue, const TaskId* ids,
                        size_t count, const BinProfile& profile,
                        DecompositionPlan* plan) {
  if (queue.size() == 0) {
    return Status::Internal("empty optimal priority queue");
  }
  uint64_t n = count;
  size_t pos = 0;   // next unassigned index into `ids`
  size_t qi = 0;    // current front of the queue (elements sorted LCM desc)
  const Combination* prev = nullptr;
  double cost_prev = 0.0;

  while (n > 0) {
    // Lines 4-5: drop combinations needing more tasks than remain.
    while (qi < queue.size() && queue.element(qi).lcm() > n) ++qi;
    if (qi == queue.size()) {
      // Cannot happen: the queue always retains an LCM=1 element
      // (see BuildOpq). Guard anyway.
      return Status::Internal("OPQ exhausted with tasks remaining");
    }
    const Combination& e = queue.element(qi);
    const uint64_t k = n / e.lcm();

    if (prev != nullptr &&
        static_cast<double>(k) * e.block_cost() > cost_prev) {
      // Lines 8-10: finishing with the current (smaller-LCM) combination
      // would cost more than padding one more block of the previous one.
      const size_t take = static_cast<size_t>(n);  // n < prev->lcm() here
      prev->ExpandInto(ids + pos, take, profile, plan);
      pos += take;
      n = 0;
    } else {
      // Lines 12-15: k perfect blocks of the front combination, stamped
      // from one materialized placement template (see ExpandBlocksInto).
      e.ExpandBlocksInto(ids + pos, k, profile, plan);
      pos += static_cast<size_t>(k * e.lcm());
      n %= e.lcm();
      prev = &e;
      cost_prev = e.block_cost();
    }
  }
  return Status::OK();
}

Result<DecompositionPlan> OpqSolver::Solve(const CrowdsourcingTask& task,
                                           const BinProfile& profile) {
  if (!task.is_homogeneous()) {
    return Status::InvalidArgument(
        "OPQ-Based handles the homogeneous SLADE problem only; "
        "use OPQ-Extended for heterogeneous thresholds");
  }
  OpqBuildOptions build_options;
  build_options.node_budget = options_.opq_node_budget;
  SLADE_ASSIGN_OR_RETURN(
      OptimalPriorityQueue queue,
      BuildOpq(profile, task.threshold(0), build_options));

  std::vector<TaskId> ids(task.size());
  std::iota(ids.begin(), ids.end(), 0);
  DecompositionPlan plan;
  SLADE_RETURN_NOT_OK(
      RunOpqAssignment(queue, ids.data(), ids.size(), profile, &plan));
  return plan;
}

}  // namespace slade
