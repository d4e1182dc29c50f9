#include "solver/relaxed_dp_solver.h"

#include <algorithm>
#include <limits>

namespace slade {

Result<DecompositionPlan> RelaxedDpSolver::Solve(const CrowdsourcingTask& task,
                                                 const BinProfile& profile) {
  const double t_max = task.max_threshold();
  for (uint32_t l = 1; l <= profile.max_cardinality(); ++l) {
    if (profile.bin(l).confidence < t_max) {
      return Status::InvalidArgument(
          "relaxed variant requires r_l >= t_max for every bin; bin " +
          std::to_string(l) + " has r=" +
          std::to_string(profile.bin(l).confidence) + " < t_max=" +
          std::to_string(t_max));
    }
  }

  const size_t n = task.size();
  const uint32_t m = profile.max_cardinality();

  // DP over the number of already-covered tasks; choice[j] records the
  // cardinality of the last bin in an optimal cover of j tasks.
  std::vector<double> dp(n + 1, std::numeric_limits<double>::infinity());
  std::vector<uint32_t> choice(n + 1, 0);
  dp[0] = 0.0;
  for (size_t j = 1; j <= n; ++j) {
    for (uint32_t l = 1; l <= m; ++l) {
      const size_t take = std::min<size_t>(l, j);
      const double cand = dp[j - take] + profile.bin(l).cost;
      if (cand < dp[j]) {
        dp[j] = cand;
        choice[j] = l;
      }
    }
  }

  // Reconstruct: walk back through the choices, assigning consecutive ids.
  DecompositionPlan plan;
  size_t j = n;
  while (j > 0) {
    const uint32_t l = choice[j];
    const size_t take = std::min<size_t>(l, j);
    std::vector<TaskId> ids;
    ids.reserve(take);
    for (size_t k = j - take; k < j; ++k) {
      ids.push_back(static_cast<TaskId>(k));
    }
    plan.Add(l, 1, ids);
    j -= take;
  }
  return plan;
}

}  // namespace slade
