#include "engine/plan_splitter.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "solver/plan_arena.h"

namespace slade {

namespace {

/// Task ids per block of a split: a plan gets one block per this many ids,
/// up to one per SplitPool() worker, and a plan of fewer than twice this
/// many (every serving flush) runs its one block on the calling thread.
/// Each block pays fixed costs (a pool hand-off per pass, a scan of every
/// placement's tag) that need this much work to pay off: on a 4-vCPU VM,
/// 80k ids in 2,000 mostly mixed-owner slices split slower in 4 blocks
/// than in one.
constexpr size_t kParallelSplitIds = size_t{1} << 16;

/// Placement tags besides a single owner's slice index.
constexpr uint32_t kMixed = UINT32_MAX;      // ids of two or more slices
constexpr uint32_t kEmpty = UINT32_MAX - 1;  // no ids: belongs to no slice

/// The process-wide pool large splits fan out over, created on first use
/// and never destroyed (like the plan-arena chunk pool), so no split that
/// runs while the process exits can reach a joined pool.
ThreadPool& SplitPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::DefaultThreads());
  return *pool;
}

/// Runs `fn(b)` for each of `blocks` blocks: on SplitPool() when there are
/// several, inline otherwise.
void RunBlocks(size_t blocks, const std::function<void(size_t)>& fn) {
  ParallelFor(blocks > 1 ? &SplitPool() : nullptr, blocks, fn);
}

/// Cuts items [0, n) into `blocks` contiguous ranges of about equal
/// weight, where `ends[i]` is the ascending cumulative weight of items
/// [0, i]: block b covers items [cuts[b], cuts[b + 1]).
template <typename T>
std::vector<size_t> BalancedCuts(const T* ends, size_t n, size_t blocks) {
  std::vector<size_t> cuts(blocks + 1, n);
  cuts[0] = 0;
  const size_t total = n == 0 ? 0 : static_cast<size_t>(ends[n - 1]);
  for (size_t b = 1; b < blocks; ++b) {
    const size_t at = static_cast<size_t>(
        std::lower_bound(ends, ends + n, total * b / blocks) - ends);
    cuts[b] = std::max(cuts[b - 1], at);
  }
  return cuts;
}

}  // namespace

Result<std::vector<RequesterPlan>> PlanSplitter::SplitBySpans(
    const BatchReport& report, const BinProfile& profile,
    const std::vector<RequesterSpan>& spans) {
  const size_t num_tasks = report.num_tasks();
  const size_t num_atomic = report.num_atomic_tasks();
  const std::vector<size_t>& offsets = report.task_offsets;
  const size_t num_slices = spans.size();

  // Spans tile the batch in order, so slice s owns the contiguous global
  // ids [first_id[s], first_id[s + 1]) and its local ids are the global
  // ones minus first_id[s].
  std::vector<size_t> first_id(num_slices + 1, num_atomic);
  size_t next_task = 0;
  for (size_t s = 0; s < num_slices; ++s) {
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
    first_id[s] = next_task < num_tasks ? offsets[next_task] : num_atomic;
    next_task += span.num_tasks;
  }
  if (next_task != num_tasks) {
    return Status::InvalidArgument(
        "PlanSplitter: spans cover " + std::to_string(next_task) + " of " +
        std::to_string(num_tasks) + " input tasks");
  }

  const DecompositionPlan& plan = report.plan;
  const TaskId* ids = plan.task_ids();
  const uint32_t* ends = plan.ends();
  const size_t num_placements = plan.num_placements();
  const size_t wanted = plan.num_task_ids() / kParallelSplitIds;
  const size_t blocks =
      wanted > 1 ? std::min(wanted, SplitPool().num_threads()) : 1;

  PlanArena scratch;  // the per-id owner and per-placement tag tables
  uint32_t* owner = scratch.AllocateArray<uint32_t>(num_atomic);
  uint32_t* tag = scratch.AllocateArray<uint32_t>(num_placements);

  // Pass 1: the owner of each atomic task, over blocks of slices.
  const std::vector<size_t> slice_cuts =
      BalancedCuts(first_id.data() + 1, num_slices, blocks);
  RunBlocks(blocks, [&](size_t b) {
    for (size_t s = slice_cuts[b]; s < slice_cuts[b + 1]; ++s) {
      std::fill(owner + first_id[s], owner + first_id[s + 1],
                static_cast<uint32_t>(s));
    }
  });

  // Pass 2: tag each placement with its single owner, kMixed or kEmpty,
  // over blocks of placements, bounds-checking every id. A block stops at
  // its first bad id; the earliest failed block names the earliest bad id.
  // The first id's owner decides; the others need only a range check.
  const std::vector<size_t> placement_cuts =
      BalancedCuts(ends, num_placements, blocks);
  std::vector<size_t> bad_id(blocks, SIZE_MAX);  // index into `ids`
  RunBlocks(blocks, [&](size_t b) {
    for (size_t pi = placement_cuts[b]; pi < placement_cuts[b + 1]; ++pi) {
      const size_t begin = plan.placement_begin(pi);
      const size_t end = ends[pi];
      uint32_t t = kEmpty;
      size_t lo = 0;
      size_t hi = 0;
      for (size_t k = begin; k < end; ++k) {
        if (ids[k] >= num_atomic) {
          bad_id[b] = k;
          return;
        }
        if (k == begin) {
          t = owner[ids[k]];
          lo = first_id[t];
          hi = first_id[t + 1];
        } else if (ids[k] < lo || ids[k] >= hi) {
          t = kMixed;
        }
      }
      tag[pi] = t;
    }
  });
  for (size_t b = 0; b < blocks; ++b) {
    if (bad_id[b] == SIZE_MAX) continue;
    return Status::InvalidArgument(
        "PlanSplitter: merged plan references atomic task " +
        std::to_string(ids[bad_id[b]]) + " outside the batch (" +
        std::to_string(num_atomic) + " atomic tasks)");
  }

  // Pass 3: each block of slices sizes its slices exactly (one Reserve),
  // then emits into them in placement order. Every placement reaches each
  // slice owning one of its ids, with the full (cardinality, copies): the
  // bins are posted either way, so each atomic task keeps its exact
  // reliability contribution. Runs of consecutive placements of one slice
  // are copied with AppendRange (bulk column copies with a constant id
  // shift); a mixed placement is bucketed by owner.
  std::vector<RequesterPlan> slices(num_slices);
  RunBlocks(blocks, [&](size_t b) {
    const size_t lo = slice_cuts[b];
    const size_t hi = slice_cuts[b + 1];
    const size_t width = hi - lo;
    // The block's slices own the global ids [id_lo, id_hi): a mixed
    // placement's other ids are skipped without an owner lookup.
    const size_t id_lo = first_id[lo];
    const size_t id_hi = first_id[hi];
    auto mine = [&](uint32_t o) { return o >= lo && o < hi; };

    std::vector<size_t> slice_placements(width, 0);
    std::vector<size_t> slice_ids(width, 0);
    std::vector<size_t> last_seen(width, SIZE_MAX);  // last mixed placement
    for (size_t pi = 0; pi < num_placements; ++pi) {
      const uint32_t t = tag[pi];
      if (t == kEmpty) continue;
      const size_t begin = plan.placement_begin(pi);
      if (t != kMixed) {
        if (!mine(t)) continue;
        slice_placements[t - lo] += 1;
        slice_ids[t - lo] += ends[pi] - begin;
        continue;
      }
      for (size_t k = begin; k < ends[pi]; ++k) {
        if (ids[k] < id_lo || ids[k] >= id_hi) continue;
        const uint32_t o = owner[ids[k]];
        if (last_seen[o - lo] != pi) {
          last_seen[o - lo] = pi;
          slice_placements[o - lo] += 1;
        }
        slice_ids[o - lo] += 1;
      }
    }
    for (size_t s = lo; s < hi; ++s) {
      RequesterPlan& slice = slices[s];
      slice.requester_id = spans[s].requester_id;
      slice.task_offsets.reserve(spans[s].num_tasks + 1);
      slice.task_offsets.push_back(0);
      for (size_t k = 0; k < spans[s].num_tasks; ++k) {
        const size_t task = spans[s].first_task + k;
        slice.task_offsets.push_back(offsets[task + 1] - first_id[s]);
      }
      slice.plan.Reserve(slice_placements[s - lo], slice_ids[s - lo]);
    }

    size_t run_begin = num_placements;  // sentinel: no active run
    uint32_t run_owner = 0;
    auto flush_run = [&](size_t end) {
      if (run_begin == num_placements) return;
      slices[run_owner].plan.AppendRange(
          plan, run_begin, end - run_begin,
          -static_cast<int64_t>(first_id[run_owner]));
      run_begin = num_placements;
    };
    std::vector<std::vector<TaskId>> buckets(width);
    std::vector<uint32_t> touched;
    for (size_t pi = 0; pi < num_placements; ++pi) {
      const uint32_t t = tag[pi];
      if (t != kMixed && t != kEmpty && mine(t)) {
        if (run_begin != num_placements && run_owner != t) flush_run(pi);
        if (run_begin == num_placements) {
          run_begin = pi;
          run_owner = t;
        }
        continue;
      }
      flush_run(pi);
      if (t != kMixed) continue;
      touched.clear();
      for (size_t k = plan.placement_begin(pi); k < ends[pi]; ++k) {
        if (ids[k] < id_lo || ids[k] >= id_hi) continue;
        const uint32_t o = owner[ids[k]];
        std::vector<TaskId>& bucket = buckets[o - lo];
        if (bucket.empty()) touched.push_back(o);
        bucket.push_back(static_cast<TaskId>(ids[k] - first_id[o]));
      }
      const uint32_t cardinality = plan.cardinalities()[pi];
      const uint32_t copies = plan.copies()[pi];
      for (uint32_t o : touched) {
        std::vector<TaskId>& bucket = buckets[o - lo];
        slices[o].plan.Add(cardinality, copies, bucket.data(), bucket.size());
        bucket.clear();  // keeps capacity: no realloc next placement
      }
    }
    flush_run(num_placements);

    for (size_t s = lo; s < hi; ++s) {
      slices[s].cost = slices[s].plan.TotalCost(profile);
      slices[s].bins_posted = slices[s].plan.TotalBinInstances();
    }
  });
  return slices;
}

}  // namespace slade
