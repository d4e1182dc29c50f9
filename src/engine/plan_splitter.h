// Copyright (c) the SLADE reproduction authors.
// Cutting a merged batch plan back into per-requester plans.
//
// DecompositionEngine answers a whole batch with one merged plan addressed
// by global atomic-task ids, and BatchReport records where each input task's
// ids start (task_offsets). A serving front end needs the reverse: each
// requester wants a plan over *their* tasks only, addressed in their own
// 0-based ids. PlanSplitter performs that cut. Every atomic task keeps its
// exact bin memberships (cardinality and copies are preserved placement by
// placement), so each slice meets the same reliability thresholds the
// merged plan met -- slices of a feasible plan are feasible.
//
// Under EngineOptions sharing == kIsolated no bin mixes input tasks, so the
// slices partition the merged plan and slice costs sum exactly to the batch
// cost. Under kPooled a bin may hold atomic tasks of several requesters;
// such a placement appears in every affected slice (each requester must
// still post the full bin to keep their reliability), so the sum of slice
// costs can exceed the batch cost -- the difference is the sharing discount
// the platform pockets.
//
// A large plan is split in blocks of requesters, one per 65,536 task ids
// up to one per worker of a process-wide pool of
// ThreadPool::DefaultThreads() workers; a plan under 131,072 ids runs the
// same passes as one block on the calling thread. Each slice is sized
// exactly and filled in placement order, so the slices are the same
// whichever way it runs.

#ifndef SLADE_ENGINE_PLAN_SPLITTER_H_
#define SLADE_ENGINE_PLAN_SPLITTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binmodel/task_bin.h"
#include "common/result.h"
#include "engine/decomposition_engine.h"
#include "solver/plan.h"

namespace slade {

/// \brief One requester's slice of a merged batch plan.
struct RequesterPlan {
  std::string requester_id;
  /// The slice, addressed in requester-local atomic ids: 0-based, ordered
  /// as the requester's input tasks appeared in the batch. Columnar, like
  /// the merged plan it was cut from (see solver/plan.h).
  DecompositionPlan plan;
  /// Requester-local input-task offsets (size = num input tasks + 1):
  /// the requester's input task `k` owns local ids
  /// [task_offsets[k], task_offsets[k+1]).
  std::vector<size_t> task_offsets;
  /// Standalone cost of posting exactly this slice's bins.
  double cost = 0.0;
  uint64_t bins_posted = 0;

  // --- streaming metadata, filled by StreamingEngine (0 otherwise) ---
  /// Ordinal of the micro-batch that answered this slice.
  uint64_t flush_id = 0;
  /// Admission-to-delivery wall time of the owning submission.
  double latency_seconds = 0.0;
  /// Idempotency id of the owning submission (client-supplied or
  /// engine-generated when durability is on; empty otherwise).
  std::string submission_id;
  /// True when this is the replayed outcome of an already-completed
  /// submission id: cost/bins_posted/flush_id/latency_seconds describe
  /// the original delivery and `plan` is empty (placements are not
  /// retained for replay — see durability/hooks.h).
  bool duplicate = false;
  /// Serving platform and profile epoch the slice was solved under
  /// (registry-routed serving only; empty/0 in single-profile mode and on
  /// duplicate replays, whose journal records predate the routing).
  std::string platform;
  uint64_t epoch = 0;

  size_t num_tasks() const {
    return task_offsets.empty() ? 0 : task_offsets.size() - 1;
  }
  size_t num_atomic_tasks() const {
    return task_offsets.empty() ? 0 : task_offsets.back();
  }
};

/// \brief A contiguous run of a batch's input tasks owned by one requester
/// (one Submit call in the streaming engine). `num_tasks` may be zero: an
/// admitted-but-empty requester yields an empty slice.
struct RequesterSpan {
  std::string requester_id;
  size_t first_task = 0;
  size_t num_tasks = 0;
};

/// \brief Splits merged BatchReports into per-requester plans.
class PlanSplitter {
 public:
  /// Cuts `report.plan` into one slice per span. The spans must tile the
  /// batch's input tasks exactly: in order, non-overlapping, covering
  /// [0, report.num_tasks()). Returns the slices in span order. Fails on a
  /// non-tiling span list or a plan referencing ids outside the batch.
  static Result<std::vector<RequesterPlan>> SplitBySpans(
      const BatchReport& report, const BinProfile& profile,
      const std::vector<RequesterSpan>& spans);
};

}  // namespace slade

#endif  // SLADE_ENGINE_PLAN_SPLITTER_H_
