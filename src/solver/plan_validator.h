// Copyright (c) the SLADE reproduction authors.
// Feasibility checking of decomposition plans against the SLADE constraints.

#ifndef SLADE_SOLVER_PLAN_VALIDATOR_H_
#define SLADE_SOLVER_PLAN_VALIDATOR_H_

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/status.h"
#include "solver/plan.h"

namespace slade {

/// \brief Structural + reliability validation report.
struct ValidationReport {
  /// Per Definition 3: Rel(a_i, B(a_i)) >= t_i for all i.
  bool feasible = false;
  /// Worst margin `min_i (R(a_i) - theta_i)` in the log domain; negative
  /// iff infeasible.
  double worst_log_margin = 0.0;
  /// Index of the atomic task attaining the worst margin.
  TaskId worst_task = 0;
  /// Total plan cost recomputed from the profile.
  double total_cost = 0.0;
};

/// \brief Validates `plan` against `task` under `profile`.
///
/// Checks, in order:
///  1. every placement's cardinality exists in the profile;
///  2. every placement holds <= cardinality distinct tasks, all in range;
///  3. every atomic task reaches its reliability threshold (Equation 1/2).
///
/// Structural violations (1-2) return an error Status; an infeasible but
/// well-formed plan returns OK with `feasible == false` so callers can
/// report the margin.
///
/// One fused sweep over the plan's columns: bounds, duplicate and
/// reliability checks share a single pass, with a per-cardinality weight
/// lookup table and an epoch-stamped duplicate scratch.
Result<ValidationReport> ValidatePlan(const DecompositionPlan& plan,
                                      const CrowdsourcingTask& task,
                                      const BinProfile& profile);

}  // namespace slade

#endif  // SLADE_SOLVER_PLAN_VALIDATOR_H_
