#include "solver/plan_validator.h"

#include <algorithm>

#include "common/math_util.h"

namespace slade {

// Duplicate detection uses an epoch-stamped scratch array instead of a
// per-placement unordered_set: `last_seen[id] == epoch` iff `id` already
// appeared in the current placement. Advancing the epoch retires all
// stamps in O(1), so a 10^5-placement plan costs one n-sized allocation
// total instead of 10^5 hash-set rebuilds.
Result<ValidationReport> ValidatePlan(const DecompositionPlan& plan,
                                      const CrowdsourcingTask& task,
                                      const BinProfile& profile) {
  const size_t n = task.size();
  const uint32_t max_cardinality = profile.max_cardinality();
  const std::vector<double>& log_weights = profile.log_weights();

  // Cost is accumulated inside the same sweep, through a per-cardinality
  // table indexed only *after* the cardinality check -- a malformed plan
  // must never drive a profile lookup (TotalCost would read out of
  // bounds on an unknown cardinality).
  std::vector<double> cost_of(max_cardinality + 1, 0.0);
  for (const TaskBin& bin : profile.bins()) {
    if (bin.cardinality <= max_cardinality) {
      cost_of[bin.cardinality] = bin.cost;
    }
  }
  double total_cost = 0.0;

  std::vector<double> accumulated(n, 0.0);
  std::vector<uint32_t> last_seen(n, 0);
  uint32_t epoch = 0;

  const size_t num_placements = plan.num_placements();
  for (size_t pi = 0; pi < num_placements; ++pi) {
    const DecompositionPlan::PlacementView p = plan.view(pi);
    if (p.cardinality == 0 || p.cardinality > max_cardinality) {
      return Status::InvalidArgument(
          "placement " + std::to_string(pi) + " uses cardinality " +
          std::to_string(p.cardinality) + " outside profile (m=" +
          std::to_string(max_cardinality) + ")");
    }
    if (p.num_tasks > p.cardinality) {
      return Status::InvalidArgument(
          "placement " + std::to_string(pi) + " holds " +
          std::to_string(p.num_tasks) + " tasks in a bin of cardinality " +
          std::to_string(p.cardinality));
    }
    ++epoch;
    if (epoch == 0) {  // wrapped: restamp the scratch and restart epochs
      std::fill(last_seen.begin(), last_seen.end(), 0);
      epoch = 1;
    }
    total_cost += static_cast<double>(p.copies) * cost_of[p.cardinality];
    const double w = log_weights[p.cardinality - 1] *
                     static_cast<double>(p.copies);
    for (uint32_t j = 0; j < p.num_tasks; ++j) {
      const TaskId id = p.tasks[j];
      if (id >= n) {
        return Status::OutOfRange("placement " + std::to_string(pi) +
                                  " references task " + std::to_string(id) +
                                  " but n=" + std::to_string(n));
      }
      if (last_seen[id] == epoch) {
        return Status::InvalidArgument(
            "placement " + std::to_string(pi) + " lists task " +
            std::to_string(id) +
            " twice (a bin holds *different* atomic tasks)");
      }
      last_seen[id] = epoch;
      accumulated[id] += w;
    }
  }

  ValidationReport report;
  report.total_cost = total_cost;
  report.feasible = true;
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    const double margin = accumulated[i] - task.theta(static_cast<TaskId>(i));
    if (first || margin < report.worst_log_margin) {
      report.worst_log_margin = margin;
      report.worst_task = static_cast<TaskId>(i);
      first = false;
    }
    if (!ApproxGe(accumulated[i], task.theta(static_cast<TaskId>(i)))) {
      report.feasible = false;
    }
  }
  return report;
}

}  // namespace slade
