#include "engine/plan_splitter.h"

#include <cstdint>
#include <utility>

namespace slade {

namespace {

/// The cut itself: `owner_of_task[k]` is the slice index owning input task
/// `k` (slice labels already fixed by the caller; empty slices are
/// allowed).
///
/// Works directly on the merged plan's columns. Placements owned entirely
/// by one slice whose local ids are a constant shift of the global ids --
/// every placement under kIsolated, where an owner's atomic tasks are one
/// contiguous global range -- are coalesced into runs and copied with
/// DecompositionPlan::AppendRange (bulk column memcpy, no per-id work
/// beyond the ownership scan). Mixed placements fall back to per-owner
/// buckets whose scratch is reused across placements.
Result<std::vector<RequesterPlan>> SplitByOwner(
    const BatchReport& report, const BinProfile& profile,
    const std::vector<size_t>& owner_of_task,
    std::vector<RequesterPlan> slices) {
  const std::vector<size_t>& offsets = report.task_offsets;
  const size_t num_tasks = report.num_tasks();
  const size_t num_atomic = report.num_atomic_tasks();

  // Requester-local ids follow the global order restricted to each slice:
  // sweep the input tasks once, numbering each slice's atomic tasks 0..n-1
  // and recording the slice-local input-task offsets as we go.
  std::vector<uint32_t> owner_of_atomic(num_atomic, 0);
  std::vector<TaskId> local_of_global(num_atomic, 0);
  for (RequesterPlan& slice : slices) slice.task_offsets.assign(1, 0);
  for (size_t k = 0; k < num_tasks; ++k) {
    const size_t o = owner_of_task[k];
    RequesterPlan& slice = slices[o];
    TaskId next = static_cast<TaskId>(slice.task_offsets.back());
    for (size_t id = offsets[k]; id < offsets[k + 1]; ++id) {
      owner_of_atomic[id] = static_cast<uint32_t>(o);
      local_of_global[id] = next++;
    }
    slice.task_offsets.push_back(next);
  }

  const DecompositionPlan& plan = report.plan;
  const TaskId* ids = plan.task_ids();
  const size_t num_placements = plan.num_placements();

  // Active contiguous run of single-owner placements (at most one at a
  // time; flushed whenever the owner, the id shift, or contiguity breaks).
  size_t run_begin = num_placements;  // sentinel: no active run
  size_t run_owner = 0;
  int64_t run_delta = 0;
  auto flush_run = [&](size_t end) {
    if (run_begin == num_placements) return;
    slices[run_owner].plan.AppendRange(plan, run_begin, end - run_begin,
                                       run_delta);
    run_begin = num_placements;
  };

  std::vector<std::vector<TaskId>> buckets(slices.size());
  std::vector<size_t> touched;
  for (size_t pi = 0; pi < num_placements; ++pi) {
    const size_t begin = plan.placement_begin(pi);
    const size_t end = plan.placement_end(pi);
    if (begin == end) {
      // A task-less placement belongs to no slice (matching the bucket
      // path, which never touches an owner for it).
      flush_run(pi);
      continue;
    }

    // Ownership scan: bounds-check every id and detect the single-owner /
    // constant-shift case without touching the buckets.
    for (size_t k = begin; k < end; ++k) {
      if (ids[k] >= num_atomic) {
        return Status::InvalidArgument(
            "PlanSplitter: merged plan references atomic task " +
            std::to_string(ids[k]) + " outside the batch (" +
            std::to_string(num_atomic) + " atomic tasks)");
      }
    }
    const uint32_t first_owner = owner_of_atomic[ids[begin]];
    const int64_t delta = static_cast<int64_t>(local_of_global[ids[begin]]) -
                          static_cast<int64_t>(ids[begin]);
    bool shiftable = true;
    for (size_t k = begin; k < end && shiftable; ++k) {
      shiftable = owner_of_atomic[ids[k]] == first_owner &&
                  static_cast<int64_t>(local_of_global[ids[k]]) -
                          static_cast<int64_t>(ids[k]) ==
                      delta;
    }

    if (shiftable) {
      if (run_begin != num_placements &&
          (run_owner != first_owner || run_delta != delta)) {
        flush_run(pi);
      }
      if (run_begin == num_placements) {
        run_begin = pi;
        run_owner = first_owner;
        run_delta = delta;
      }
      continue;
    }

    // Mixed placement: bucket the local ids by owner; every owner receives
    // the placement with the full (cardinality, copies) -- the bins are
    // posted either way, so each atomic task keeps its exact reliability
    // contribution.
    flush_run(pi);
    touched.clear();
    for (size_t k = begin; k < end; ++k) {
      std::vector<TaskId>& bucket = buckets[owner_of_atomic[ids[k]]];
      if (bucket.empty()) touched.push_back(owner_of_atomic[ids[k]]);
      bucket.push_back(local_of_global[ids[k]]);
    }
    const uint32_t cardinality = plan.cardinalities()[pi];
    const uint32_t copies = plan.copies()[pi];
    for (size_t o : touched) {
      slices[o].plan.Add(cardinality, copies, buckets[o].data(),
                         buckets[o].size());
      buckets[o].clear();  // keeps capacity: no realloc next placement
    }
  }
  flush_run(num_placements);

  for (RequesterPlan& slice : slices) {
    slice.cost = slice.plan.TotalCost(profile);
    slice.bins_posted = slice.plan.TotalBinInstances();
  }
  return slices;
}

}  // namespace

Result<std::vector<RequesterPlan>> PlanSplitter::SplitBySpans(
    const BatchReport& report, const BinProfile& profile,
    const std::vector<RequesterSpan>& spans) {
  const size_t num_tasks = report.num_tasks();
  std::vector<size_t> owner_of_task(num_tasks, 0);
  std::vector<RequesterPlan> slices(spans.size());
  size_t next_task = 0;
  for (size_t s = 0; s < spans.size(); ++s) {
    const RequesterSpan& span = spans[s];
    if (span.first_task != next_task ||
        span.num_tasks > num_tasks - next_task) {
      return Status::InvalidArgument(
          "PlanSplitter: span " + std::to_string(s) + " covers tasks [" +
          std::to_string(span.first_task) + ", " +
          std::to_string(span.first_task + span.num_tasks) +
          ") but the batch expects the next span at task " +
          std::to_string(next_task) + " of " + std::to_string(num_tasks));
    }
    for (size_t k = 0; k < span.num_tasks; ++k) {
      owner_of_task[next_task + k] = s;
    }
    next_task += span.num_tasks;
    slices[s].requester_id = span.requester_id;
  }
  if (next_task != num_tasks) {
    return Status::InvalidArgument(
        "PlanSplitter: spans cover " + std::to_string(next_task) + " of " +
        std::to_string(num_tasks) + " input tasks");
  }
  return SplitByOwner(report, profile, owner_of_task, std::move(slices));
}

}  // namespace slade
