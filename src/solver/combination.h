// Copyright (c) the SLADE reproduction authors.
// Combinations of task bins and their LCM / unit-cost arithmetic
// (paper Section 5.2.1, Example 6, Figure 5).

#ifndef SLADE_SOLVER_COMBINATION_H_
#define SLADE_SOLVER_COMBINATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "solver/plan.h"

namespace slade {

/// \brief A combination of task bins
/// `Comb = {n_{k1} x b_{k1}, ..., n_{kl} x b_{kl}}`: every atomic task
/// routed through the combination is placed in `n_k` bins of cardinality
/// `k` for each part.
///
/// Derived quantities (Section 5.2.1):
///  * `lcm()` -- the least common multiple of the part cardinalities: the
///    number of atomic tasks that tile perfectly into the combination
///    (Figure 5);
///  * `unit_cost()` -- `UC = sum n_k * c_k / k`, the averaged incentive
///    cost per atomic task;
///  * `log_weight()` -- `sum n_k * w_k`, the per-task reliability
///    contribution in the log domain.
class Combination {
 public:
  /// (cardinality, count) parts; sorted by cardinality, counts >= 1.
  using Parts = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Validates parts against `profile` and precomputes LCM/UC/weight.
  static Result<Combination> Create(Parts parts, const BinProfile& profile);

  const Parts& parts() const { return parts_; }
  uint64_t lcm() const { return lcm_; }
  double unit_cost() const { return unit_cost_; }
  double log_weight() const { return log_weight_; }

  /// Cost of assigning one full block of `lcm()` atomic tasks.
  double block_cost() const {
    return unit_cost_ * static_cast<double>(lcm_);
  }

  /// \brief Emits the bins that route the `count` ids at `ids` through
  /// this combination.
  ///
  /// When `count == lcm()` this is the perfect tiling of Figure 5:
  /// for each part (k, n_k), the ids are split into lcm/k consecutive
  /// groups of k, and each group is posted n_k times. When fewer ids are
  /// given (the Algorithm 3 padding path), the last group of each
  /// cardinality is partially filled; every task still lands in exactly
  /// n_k bins of each part, so the reliability guarantee is preserved.
  ///
  /// Returns the actual incentive cost of the emitted bins (equal to
  /// block_cost() for a full block, less for a padded one). Each group is
  /// stamped straight into the plan's flat columns (one memcpy per group).
  double ExpandInto(const TaskId* ids, size_t count,
                    const BinProfile& profile, DecompositionPlan* plan) const;

  /// \brief Emits `blocks` consecutive perfect blocks of `lcm()` tasks
  /// each from the `blocks * lcm()` ids at `ids` -- the Algorithm 3 lines
  /// 12-15 bulk path. Equivalent to calling `ExpandInto(ids + b * lcm(),
  /// lcm(), ...)` for b = 0..blocks-1 (placements appended in the same
  /// order), but materializes the block's placement template (one
  /// (cardinality, copies, begin) group list) once, reserves every plan
  /// column once (placements AND task-id slots for all blocks), and
  /// range-fills the template per block -- zero allocations in the steady
  /// state of a reset-reused arena.
  ///
  /// Returns the total incentive cost of the emitted bins
  /// (`blocks * block_cost()` up to rounding of the per-bin sum).
  double ExpandBlocksInto(const TaskId* ids, uint64_t blocks,
                          const BinProfile& profile,
                          DecompositionPlan* plan) const;

  /// "{3 x b1, 2 x b2, 1 x b3} LCM=6 UC=0.56".
  std::string ToString() const;

 private:
  Combination(Parts parts, uint64_t lcm, double unit_cost, double log_weight)
      : parts_(std::move(parts)),
        lcm_(lcm),
        unit_cost_(unit_cost),
        log_weight_(log_weight) {}

  Parts parts_;
  uint64_t lcm_;
  double unit_cost_;
  double log_weight_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_COMBINATION_H_
