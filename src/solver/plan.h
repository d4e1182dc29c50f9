// Copyright (c) the SLADE reproduction authors.
// Decomposition plans (paper Definition 3), stored as flat columns.
//
// A plan is a list of placements: `copies` posted instances of an
// l-cardinality bin holding a set of atomic tasks. The plan keeps them as
// a structure of arrays (Arrow's columnar buffer + memory-pool design is
// the model):
//
//   task_ids[]    -- every placement's member ids, back to back
//   ends[]        -- placement i's ids live in
//                    [ends[i-1], ends[i])  (ends[-1] == 0)
//   cardinality[] -- bin cardinality l per placement
//   copies[]      -- posted instances per placement
//
// All four columns live in one PlanArena (solver/plan_arena.h), so a
// million-placement merged plan costs O(arena chunks) allocations to
// build instead of one per placement, and Clear() lets a serving loop
// restamp plans round after round without allocating. Consumers
// (validation, cost accounting, splitting, merge, dispatch, CSV) walk the
// flat columns or view(i) with dense loops; see plan_validator.h,
// plan_splitter.h, decomposition_engine.h.

#ifndef SLADE_SOLVER_PLAN_H_
#define SLADE_SOLVER_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "solver/plan_arena.h"

namespace slade {

class ResourceGovernor;

/// \brief A decomposition plan `DP_T`: which bins are posted and which
/// atomic tasks each contains.
///
/// The paper's plan notation {tau_i, b_i} only counts bins per cardinality;
/// we additionally record the task-to-bin mapping so that plans can be
/// validated (plan_validator.h) and posted to the platform simulator
/// (engine/answer_collector.h).
///
/// A placement may hold fewer tasks than its cardinality: Definition 1
/// allows a bin to contain *at most* l distinct atomic tasks, and the OPQ
/// padding path (Algorithm 3 lines 8-10) posts partially filled bins for
/// leftover tasks.
class DecompositionPlan {
 public:
  /// `governor` (may be null) is charged per arena chunk; it must outlive
  /// the plan unless DetachGovernor() is called first.
  explicit DecompositionPlan(ResourceGovernor* governor = nullptr)
      : arena_(std::make_unique<PlanArena>(governor)) {}

  // Deep copy (fresh arena, no governor). Hot paths move instead.
  DecompositionPlan(const DecompositionPlan& other);
  DecompositionPlan& operator=(const DecompositionPlan& other);
  DecompositionPlan(DecompositionPlan&&) noexcept = default;
  DecompositionPlan& operator=(DecompositionPlan&&) noexcept = default;

  /// \brief Zero-copy read view of one placement.
  struct PlacementView {
    uint32_t cardinality = 0;
    uint32_t copies = 0;
    const TaskId* tasks = nullptr;
    uint32_t num_tasks = 0;
  };

  size_t num_placements() const { return cardinality_.size(); }
  bool empty() const { return cardinality_.size() == 0; }
  size_t num_task_ids() const { return task_ids_.size(); }

  size_t placement_begin(size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }
  size_t placement_end(size_t i) const { return ends_[i]; }

  PlacementView view(size_t i) const {
    const size_t begin = placement_begin(i);
    return PlacementView{cardinality_[i], copies_[i], task_ids_.data() + begin,
                         static_cast<uint32_t>(ends_[i] - begin)};
  }

  // Raw columns for flat passes (sizes: num_placements(), except task_ids
  // with num_task_ids()). ends()[i] is the exclusive task-id offset of
  // placement i; placement 0 begins at 0.
  const TaskId* task_ids() const { return task_ids_.data(); }
  const uint32_t* ends() const { return ends_.data(); }
  const uint32_t* cardinalities() const { return cardinality_.data(); }
  const uint32_t* copies() const { return copies_.data(); }

  /// Pre-sizes the columns; the workhorse of bulk stamping. Growth still
  /// works without it, at O(log) extra arena chunks.
  void Reserve(size_t placements, size_t ids);

  /// Appends one placement: `copies` instances of an l=`cardinality` bin
  /// holding the `n` ids at `ids`. No-op when copies == 0. The ids must be
  /// distinct and fit the cardinality; violations are caught by the
  /// validator rather than here (solvers are trusted, external input is
  /// not).
  void Add(uint32_t cardinality, uint32_t copies, const TaskId* ids,
           size_t n);
  void Add(uint32_t cardinality, uint32_t copies,
           const std::vector<TaskId>& ids) {
    Add(cardinality, copies, ids.data(), ids.size());
  }

  /// Column-concatenates `other` onto this plan (the engine's shard merge
  /// and the baseline solver's chunk merge): three memcpys plus an
  /// offset-rebase of the ends column, no per-placement work.
  void AppendColumns(const DecompositionPlan& other);

  /// Column-concatenates placements [first, first + count) of `other`,
  /// shifting every task id by `id_delta` (the splitter's contiguous-run
  /// fast path).
  void AppendRange(const DecompositionPlan& other, size_t first,
                   size_t count, int64_t id_delta);

  /// Empties the plan and rewinds the arena; the next fill of similar
  /// shape allocates nothing.
  void Clear();

  /// See PlanArena::DetachGovernor.
  void DetachGovernor() { arena_->DetachGovernor(); }

  // --- flat accounting passes (single sweeps over the columns, bin
  // --- lookups through per-cardinality tables) ---

  /// Total incentive cost `sum tau_l * c_l` under `profile`, summed in
  /// placement order onto `carried`. A plan cut into parts totals
  /// bit-identically to the whole when each part carries the running sum
  /// of the parts before it (the batch engine's large-shard stats).
  double TotalCost(const BinProfile& profile, double carried = 0.0) const;

  /// Bin-usage counts tau_l indexed by cardinality (index 0 unused).
  std::vector<uint64_t> BinCounts(uint32_t max_cardinality) const;

  /// Total number of posted bin instances (sum of copies).
  uint64_t TotalBinInstances() const;

  /// Per-task achieved reliability (Equation 1) under `profile`.
  /// `n` is the number of atomic tasks; tasks never placed get 0.
  std::vector<double> PerTaskReliability(const BinProfile& profile,
                                         size_t n) const;

  /// Human-readable summary: bin counts and total cost.
  std::string Summary(const BinProfile& profile) const;

  const PlanArena& arena() const { return *arena_; }

 private:
  std::unique_ptr<PlanArena> arena_;
  ArenaColumn<TaskId> task_ids_;
  ArenaColumn<uint32_t> ends_;
  ArenaColumn<uint32_t> cardinality_;
  ArenaColumn<uint32_t> copies_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_PLAN_H_
