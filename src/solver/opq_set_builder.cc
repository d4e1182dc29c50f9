#include "solver/opq_set_builder.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace slade {

Result<size_t> GroupIndexOf(const std::vector<double>& uppers,
                            double theta) {
  const size_t g = GroupIndexOrEnd(uppers.data(), uppers.size(), theta);
  if (g == uppers.size()) {
    return Status::OutOfRange("theta " + std::to_string(theta) +
                              " above the largest interval bound " +
                              std::to_string(uppers.back()));
  }
  return g;
}

Result<size_t> OpqSet::GroupOf(double theta) const {
  return GroupIndexOf(uppers_, theta);
}

Result<std::vector<double>> ComputeThetaPartition(double theta_min,
                                                  double theta_max) {
  if (!(theta_min > 0.0) || theta_min > theta_max) {
    return Status::InvalidArgument(
        "need 0 < theta_min <= theta_max in ComputeThetaPartition");
  }
  // Algorithm 4: alpha = floor(log2 theta_min); intervals with upper
  // bounds 2^{alpha+i+1}, the last clipped to theta_max.
  const double alpha = std::floor(std::log2(theta_min));
  std::vector<double> uppers;
  for (int i = 0;; ++i) {
    const double lower = std::exp2(alpha + i);
    if (!(lower < theta_max)) break;
    uppers.push_back(std::min(std::exp2(alpha + i + 1), theta_max));
  }
  // Degenerate case (theta_min == theta_max == exact power of two): the
  // loop body never runs; a single queue at theta_max covers everything.
  if (uppers.empty()) uppers.push_back(theta_max);
  return uppers;
}

Result<OpqSet> BuildOpqSet(const BinProfile& profile, double theta_min,
                           double theta_max,
                           const OpqBuildOptions& options) {
  SLADE_ASSIGN_OR_RETURN(std::vector<double> uppers,
                         ComputeThetaPartition(theta_min, theta_max));

  std::vector<OptimalPriorityQueue> queues;
  queues.reserve(uppers.size());
  for (double tau : uppers) {
    // Line 10 (with the paper's sign typo fixed): t = 1 - e^{-tau}.
    const double t = InverseLogReduction(tau);
    SLADE_ASSIGN_OR_RETURN(OptimalPriorityQueue q,
                           BuildOpq(profile, t, options));
    queues.push_back(std::move(q));
  }
  return OpqSet(std::move(uppers), std::move(queues));
}

}  // namespace slade
