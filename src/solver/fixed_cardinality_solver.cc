#include "solver/fixed_cardinality_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_util.h"

namespace slade {

std::string FixedCardinalitySolver::name() const {
  if (cardinality_ == 0) return "Fixed-Cardinality";
  return "Fixed-Cardinality(l=" + std::to_string(cardinality_) + ")";
}

uint32_t FixedCardinalitySolver::BestCardinality(const BinProfile& profile,
                                                 double theta) {
  uint32_t best_l = 1;
  double best_per_task = std::numeric_limits<double>::infinity();
  for (uint32_t l = 1; l <= profile.max_cardinality(); ++l) {
    const TaskBin& bin = profile.bin(l);
    const double copies = std::ceil(theta / bin.log_weight() - kRelEps);
    const double per_task = copies * bin.cost_per_task();
    if (per_task < best_per_task) {
      best_per_task = per_task;
      best_l = l;
    }
  }
  return best_l;
}

Result<DecompositionPlan> FixedCardinalitySolver::Solve(
    const CrowdsourcingTask& task, const BinProfile& profile) {
  uint32_t l = cardinality_;
  if (l == 0) {
    l = BestCardinality(profile, LogReduction(task.max_threshold()));
  } else if (l > profile.max_cardinality()) {
    return Status::OutOfRange("profile has no cardinality " +
                              std::to_string(l));
  }
  const TaskBin& bin = profile.bin(l);
  const double w = bin.log_weight();
  const size_t n = task.size();

  // Bin memberships needed per task; sorted descending so that every
  // "round" of bins covers a prefix.
  std::vector<TaskId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> needed(n);
  uint32_t max_needed = 0;
  for (size_t i = 0; i < n; ++i) {
    needed[i] = static_cast<uint32_t>(
        std::ceil(task.theta(static_cast<TaskId>(i)) / w - kRelEps));
    needed[i] = std::max(needed[i], 1u);
    max_needed = std::max(max_needed, needed[i]);
  }
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return needed[a] > needed[b];
  });

  DecompositionPlan plan;
  size_t round_size = n;
  for (uint32_t round = 1; round <= max_needed; ++round) {
    // Shrink to the prefix of tasks still needing a `round`-th membership.
    while (round_size > 0 && needed[order[round_size - 1]] < round) {
      --round_size;
    }
    for (size_t start = 0; start < round_size; start += l) {
      const size_t end = std::min<size_t>(start + l, round_size);
      std::vector<TaskId> members(order.begin() + start,
                                  order.begin() + end);
      plan.Add(l, 1, members);
    }
  }
  return plan;
}

}  // namespace slade
