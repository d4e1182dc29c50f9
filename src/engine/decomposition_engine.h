// Copyright (c) the SLADE reproduction authors.
// Batched, sharded, thread-parallel decomposition of whole workloads.
//
// The paper solves one large-scale crowdsourcing task at a time; a platform
// serving many requesters receives thousands of them per batch. Because
// atomic tasks are independent boolean questions (Section 3.1), a batch of
// crowdsourcing tasks is itself one big heterogeneous SLADE instance, so
// the engine pools every atomic task in the batch, shards the pool by the
// Algorithm 4 threshold groups, solves each shard with the Algorithm 3
// assignment under the shard's optimal priority queue, and merges the
// per-shard plans. Sharding across the whole batch (instead of per input
// task) means:
//   * one OPQ build per threshold group for the entire batch, served
//     through OpqCache so repeated batches never re-run Algorithm 2;
//   * shards are independent, so they run in parallel on common/ThreadPool.
//     A shard too large for one job (2 x 65,536 ids or more) is cut at
//     multiples of L, the LCM of its Algorithm 3 front element, and its
//     parts run in parallel too: every part but the last holds whole
//     L-blocks, the last at least one block plus the remainder, so each part
//     starts with the same front element and the last reaches the leftover
//     tasks with it as `prev` -- the parts' placements, in order, are the
//     whole shard's (see RunOpqAssignment). The cut is a constant, so plans
//     and stats never depend on the thread count;
//   * routing the atomic tasks to shards (Algorithm 5 lines 5-7) counts and
//     then scatters, over chunks of input tasks on the same pool;
//   * leftover-padding waste (Algorithm 3 lines 8-10) is paid once per
//     shard, not once per input task.

#ifndef SLADE_ENGINE_DECOMPOSITION_ENGINE_H_
#define SLADE_ENGINE_DECOMPOSITION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/opq_cache.h"
#include "engine/resource_governor.h"
#include "solver/plan.h"
#include "solver/solver.h"

namespace slade {

/// \brief How the batch's atomic tasks may share bins.
enum class BatchSharing {
  /// Pool the whole batch: shard = Algorithm 4 threshold group over the
  /// batch-wide threshold range, so atomic tasks from different input tasks
  /// (and different requesters) tile into the same bins. Cheapest: leftover
  /// padding (Algorithm 3 lines 8-10) is paid once per group for the whole
  /// batch.
  kPooled,
  /// Isolate input tasks: shard = (input task, group of the task's own
  /// Algorithm 4 partition). No bin ever mixes atomic tasks from two input
  /// tasks, and each input task's sub-plan is exactly what OPQ-Extended
  /// (Algorithm 5) would produce for it alone -- the merged plan equals
  /// SolveBatchSequential's placement for placement. Costs a little more
  /// than kPooled (per-task padding) but keeps per-requester billing
  /// exact, which is what the streaming front end needs.
  kIsolated,
};

const char* BatchSharingName(BatchSharing sharing);

/// \brief Tuning knobs for the batch engine.
struct EngineOptions {
  /// Worker threads for routing and per-shard (or per-part) solves;
  /// 0 = ThreadPool::DefaultThreads().
  /// The merged plan is identical regardless of thread count: shards are
  /// formed deterministically and merged in group order.
  uint32_t num_threads = 0;
  /// Passed through to BuildOpq on cache misses.
  uint64_t opq_node_budget = 50'000'000;
  /// Bin-sharing policy across input tasks (see BatchSharing).
  BatchSharing sharing = BatchSharing::kPooled;
  /// Capacity limits; the cache_* fields bound the engine's OpqCache
  /// (defaults keep it unbounded, the pre-governor behavior). Bounding the
  /// cache changes memory and speed, never the plan: an evicted queue is
  /// simply rebuilt on the next request for its key.
  ResourceOptions resources;
};

/// \brief Per-shard solve statistics (one shard = one threshold group with
/// at least one atomic task routed to it).
struct ShardStats {
  /// Index of the threshold group in the Algorithm 4 partition (batch-wide
  /// under kPooled, the input task's own partition under kIsolated).
  size_t group = 0;
  /// Input-task index the shard belongs to under kIsolated;
  /// kWholeBatch under kPooled (groups span the whole batch there).
  static constexpr size_t kWholeBatch = static_cast<size_t>(-1);
  size_t input_task = kWholeBatch;
  /// Interval upper bound tau and the surrogate threshold 1 - e^{-tau}
  /// the shard's queue was built for.
  double theta_upper = 0.0;
  double surrogate_threshold = 0.0;
  size_t num_atomic_tasks = 0;
  /// Summed in placement order across the shard's parts, so it is the same
  /// double whether or not the shard was cut.
  double cost = 0.0;
  uint64_t bins_posted = 0;
  /// Time spent on this shard's queue lookup + assignment: one job's wall
  /// time, or for a shard assigned in parts, the lookup's plus the sum of
  /// the parts' (CPU seconds across workers, not the elapsed span).
  double seconds = 0.0;
  /// True iff the shard's queue came out of the OpqCache without a build.
  bool opq_cache_hit = false;
};

/// \brief The merged result of a batch solve.
///
/// The merged plan addresses atomic tasks by *global* id: the atomic tasks
/// of input task `k` occupy ids [task_offsets[k], task_offsets[k+1]).
///
/// The plan is columnar (see solver/plan.h): shard plans are stamped
/// straight into flat columns and merged by column concatenation, so the
/// whole batch costs O(arena chunks) allocations instead of one per
/// placement.
struct BatchReport {
  DecompositionPlan plan;
  std::vector<size_t> task_offsets;  // size = #input tasks + 1
  double total_cost = 0.0;
  uint64_t total_bins = 0;
  double wall_seconds = 0.0;
  /// OpqCache traffic attributable to this batch.
  uint64_t opq_cache_hits = 0;
  uint64_t opq_cache_misses = 0;
  std::vector<ShardStats> shards;

  size_t num_tasks() const {
    return task_offsets.empty() ? 0 : task_offsets.size() - 1;
  }
  size_t num_atomic_tasks() const {
    return task_offsets.empty() ? 0 : task_offsets.back();
  }

  /// Human-readable multi-line summary (totals + per-shard table).
  std::string ToString() const;
};

/// \brief Concatenates a batch into the single heterogeneous task the
/// merged plan decomposes (global ids follow the batch order). Fails on an
/// empty batch.
Result<CrowdsourcingTask> ConcatenateTasks(
    const std::vector<CrowdsourcingTask>& tasks);

/// \brief The batch decomposition engine. Reusable across batches; the
/// OPQ cache persists, so a stream of batches from the same platform
/// profile amortizes every Algorithm 2 enumeration across the stream.
class DecompositionEngine {
 public:
  explicit DecompositionEngine(EngineOptions options = {});
  ~DecompositionEngine();

  DecompositionEngine(const DecompositionEngine&) = delete;
  DecompositionEngine& operator=(const DecompositionEngine&) = delete;

  /// Decomposes the whole batch under `profile`. Deterministic: the merged
  /// plan depends only on (tasks, profile, options.sharing), never on
  /// thread count, cache state or `opq_salt`. Fails on an empty batch or
  /// invalid thresholds.
  ///
  /// `opq_salt` namespaces this solve's OPQ cache entries (see
  /// OpqCache::GetOrBuild): multi-platform callers pass the serving
  /// (platform, epoch) salt so an epoch promotion can evict exactly its
  /// own builds. 0 (the default) is the single-profile namespace.
  Result<BatchReport> SolveBatch(const std::vector<CrowdsourcingTask>& tasks,
                                 const BinProfile& profile,
                                 uint64_t opq_salt = 0);

  const OpqCache& cache() const { return cache_; }
  /// Mutable cache access for targeted epoch invalidation
  /// (OpqCache::EvictBySalt); eviction never changes any plan.
  OpqCache& mutable_cache() { return cache_; }
  size_t num_threads() const { return pool_->num_threads(); }

  /// Ledger of plan-arena bytes: shard and merged plans charge this
  /// governor while a solve is in flight (charges are detached before a
  /// report escapes, so `counters().peak_bytes` records the high-water
  /// mark of plan materialization memory per batch).
  GovernorCounters plan_arena_counters() const {
    return plan_governor_.counters();
  }

 private:
  EngineOptions options_;
  OpqCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  ResourceGovernor plan_governor_;
};

/// \brief Reference implementation: solves each input task independently
/// with OPQ-Extended (Algorithm 5), no memoization, no threading, and
/// merges the per-task plans with global ids. This is what a platform
/// looping the paper's solver over its queue would do; bench_engine_batch
/// reports the engine's speedup against it.
Result<BatchReport> SolveBatchSequential(
    const std::vector<CrowdsourcingTask>& tasks, const BinProfile& profile,
    const SolverOptions& options = {});

}  // namespace slade

#endif  // SLADE_ENGINE_DECOMPOSITION_ENGINE_H_
