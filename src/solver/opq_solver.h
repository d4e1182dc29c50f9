// Copyright (c) the SLADE reproduction authors.
// The OPQ-Based homogeneous solver (paper Algorithm 3, Theorem 2).

#ifndef SLADE_SOLVER_OPQ_SOLVER_H_
#define SLADE_SOLVER_OPQ_SOLVER_H_

#include "solver/opq_builder.h"
#include "solver/solver.h"

namespace slade {

/// \brief Assigns the `count` atomic tasks at `ids` using `queue`
/// (Algorithm 3's main loop), appending the posted bins to `plan`.
///
/// Shared between OpqSolver (over all tasks) and OpqExtendedSolver (over
/// each threshold group). Faithful to the paper's pseudocode including the
/// Cost_prev comparison of lines 7-10: when covering the leftover tasks
/// with smaller-LCM combinations would cost more than padding one more
/// block of the previously used combination, the previous combination is
/// posted once more with partially filled bins.
///
/// Cost accounting note: for a padded block the paper charges the full
/// block cost `LCM * UC`; we post (and charge) only the bins that are
/// actually needed for the leftover tasks, which is never more expensive.
/// The returned plan's cost is therefore exactly `sum tau_l * c_l`
/// (Definition 3) for the bins it contains.
///
/// Cutting a range: let L be the LCM of OpqFrontElement(queue, count). Cut
/// the ids at multiples of L so that every part but the last holds whole
/// L-blocks and the last holds at least one block plus the remainder. Then
/// running this function on the parts in order appends exactly the
/// placements of one run over the whole range: each part starts with the
/// same front element and stamps whole blocks, and the last part reaches
/// the leftover tasks with that element as `prev`, as the whole run does.
/// DecompositionEngine assigns a large shard's parts in parallel this way.
Status RunOpqAssignment(const OptimalPriorityQueue& queue, const TaskId* ids,
                        size_t count, const BinProfile& profile,
                        DecompositionPlan* plan);

/// \brief Algorithm 3's front element for `n` atomic tasks (lines 4-5): the
/// first queue element, in the queue's LCM-descending order, whose LCM is
/// at most `n`. Null when no element fits (n == 0).
const Combination* OpqFrontElement(const OptimalPriorityQueue& queue,
                                   uint64_t n);

/// \brief OPQ-Based approximation solver for the homogeneous SLADE problem
/// (Algorithm 3): log(n)-approximate (Theorem 2), and exactly optimal when
/// n is a multiple of the front element's LCM (Corollary 1).
///
/// Rejects heterogeneous input with InvalidArgument -- use
/// OpqExtendedSolver (Algorithm 5) there.
class OpqSolver final : public Solver {
 public:
  explicit OpqSolver(const SolverOptions& options = {}) : options_(options) {}

  std::string name() const override { return "OPQ-Based"; }

  Result<DecompositionPlan> Solve(const CrowdsourcingTask& task,
                                  const BinProfile& profile) override;

 private:
  SolverOptions options_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_OPQ_SOLVER_H_
