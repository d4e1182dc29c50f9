#include "engine/decomposition_engine.h"

#include <algorithm>
#include <cstdio>

#include "common/math_util.h"
#include "common/stopwatch.h"
#include "solver/opq_set_builder.h"
#include "solver/opq_solver.h"
#include "solver/plan_arena.h"

namespace slade {

namespace {

/// Atomic tasks per routing job: PooledShards cuts the batch into chunks of
/// whole input tasks holding about this many, so a serving batch (a few
/// thousand atomic tasks) routes inline and a 1M-task batch in ~31 jobs.
constexpr size_t kRouteChunkIds = size_t{1} << 15;

/// Ids per Algorithm 3 part. A shard of at least twice this many ids is cut
/// at multiples of its front element's LCM into parts of about this size,
/// assigned in parallel (see RunOpqAssignment for why the parts concatenate
/// to the whole shard's placements). A constant, never the thread count, so
/// the cut and every shard stat are the same on any pool.
constexpr size_t kPartIds = size_t{1} << 16;

std::vector<size_t> ComputeOffsets(
    const std::vector<CrowdsourcingTask>& tasks) {
  std::vector<size_t> offsets(tasks.size() + 1, 0);
  for (size_t k = 0; k < tasks.size(); ++k) {
    offsets[k + 1] = offsets[k] + tasks[k].size();
  }
  return offsets;
}

/// One unit of parallel work: a set of atomic tasks (global ids, ascending)
/// solved under one surrogate threshold. Shards are formed deterministically
/// and merged in vector order, so the merged plan never depends on thread
/// count.
struct ShardSpec {
  size_t input_task = ShardStats::kWholeBatch;
  size_t group = 0;
  double theta_upper = 0.0;
  /// The shard's ids, in the solve's scratch arena.
  const TaskId* ids = nullptr;
  size_t num_ids = 0;
};

/// Routes input task `task`, whose atomic tasks have global ids from
/// `first_id`, to the partition `uppers` (Algorithm 5 lines 5-7): records
/// each atomic task's group in `group` (indexed by global id) and counts
/// them per group into `counts`. A partition has at most ~1,100 groups (the
/// exponent range of a double), so a group fits a uint16_t. Fails with
/// GroupIndexOf's OutOfRange on a threshold above the last bound.
Status RouteTask(const CrowdsourcingTask& task, size_t first_id,
                 const std::vector<double>& uppers, uint16_t* group,
                 uint32_t* counts) {
  const double* thetas = task.thetas().data();
  const size_t num_groups = uppers.size();
  for (size_t i = 0; i < task.size(); ++i) {
    const size_t g = GroupIndexOrEnd(uppers.data(), num_groups, thetas[i]);
    if (g == num_groups) return GroupIndexOf(uppers, thetas[i]).status();
    group[first_id + i] = static_cast<uint16_t>(g);
    ++counts[g];
  }
  return Status::OK();
}

/// Appends global ids [first_id, end_id) to their groups' lists, group g's
/// from `lists[g] + offset[g]` on. The write cursors are locals: cursors
/// shared between chunks would false-share, as counts would.
void ScatterIds(size_t first_id, size_t end_id, const uint16_t* group,
                const std::vector<TaskId*>& lists, const uint32_t* offset) {
  std::vector<TaskId*> out(lists.size(), nullptr);
  for (size_t g = 0; g < lists.size(); ++g) {
    if (lists[g] != nullptr) out[g] = lists[g] + offset[g];
  }
  TaskId** cursor = out.data();
  for (size_t id = first_id; id < end_id; ++id) {
    *cursor[group[id]]++ = static_cast<TaskId>(id);
  }
}

/// kPooled sharding: one shard per non-empty Algorithm 4 threshold group of
/// the batch-wide range; atomic tasks of every input task pool together.
///
/// Routing counts, then scatters. Pass 1 runs over chunks of whole input
/// tasks on `pool`; each chunk records every atomic task's group and keeps
/// its per-group counts in a local (a shared counts array would false-share
/// between chunks). Pass 2 gives each group an exactly sized list and each
/// chunk its own write offset in it (the counts of the chunks before it),
/// so chunk order keeps every list ascending. A batch of one chunk routes
/// inline. The per-id groups and the lists live in `scratch`.
Result<std::vector<ShardSpec>> PooledShards(
    const std::vector<CrowdsourcingTask>& tasks,
    const std::vector<size_t>& offsets, ThreadPool* pool,
    PlanArena* scratch) {
  double t_min = tasks.front().min_threshold();
  double t_max = tasks.front().max_threshold();
  for (const CrowdsourcingTask& t : tasks) {
    t_min = std::min(t_min, t.min_threshold());
    t_max = std::max(t_max, t.max_threshold());
  }
  SLADE_ASSIGN_OR_RETURN(
      std::vector<double> uppers,
      ComputeThetaPartition(LogReduction(t_min), LogReduction(t_max)));
  const size_t num_groups = uppers.size();

  // Chunk c holds input tasks [chunk_task[c], chunk_task[c + 1]).
  std::vector<size_t> chunk_task = {0};
  for (size_t k = 0; k < tasks.size(); ++k) {
    if (offsets[k + 1] - offsets[chunk_task.back()] >= kRouteChunkIds ||
        k + 1 == tasks.size()) {
      chunk_task.push_back(k + 1);
    }
  }
  const size_t num_chunks = chunk_task.size() - 1;

  uint16_t* group = scratch->AllocateArray<uint16_t>(offsets.back());
  std::vector<uint32_t> counts(num_chunks * num_groups, 0);  // chunk-major
  std::vector<Status> chunk_status(num_chunks);
  ParallelFor(pool, num_chunks, [&](size_t c) {
    std::vector<uint32_t> local(num_groups, 0);
    for (size_t k = chunk_task[c]; k < chunk_task[c + 1]; ++k) {
      Status st = RouteTask(tasks[k], offsets[k], uppers, group, local.data());
      if (!st.ok()) {
        chunk_status[c] = std::move(st);
        return;
      }
    }
    std::copy(local.begin(), local.end(), counts.begin() + c * num_groups);
  });
  // Chunks are in id order, so the first failed chunk names the first
  // out-of-range atomic task, as a sequential sweep would.
  for (const Status& st : chunk_status) {
    SLADE_RETURN_NOT_OK(st);
  }

  std::vector<ShardSpec> shards;
  std::vector<TaskId*> lists(num_groups, nullptr);
  for (size_t g = 0; g < num_groups; ++g) {
    uint32_t total = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      uint32_t& count = counts[c * num_groups + g];
      const uint32_t chunk_offset = total;
      total += count;
      count = chunk_offset;  // from here on: chunk c's write offset
    }
    if (total == 0) continue;
    lists[g] = scratch->AllocateArray<TaskId>(total);
    ShardSpec shard;
    shard.group = g;
    shard.theta_upper = uppers[g];
    shard.ids = lists[g];
    shard.num_ids = total;
    shards.push_back(shard);
  }
  ParallelFor(pool, num_chunks, [&](size_t c) {
    ScatterIds(offsets[chunk_task[c]], offsets[chunk_task[c + 1]], group,
               lists, counts.data() + c * num_groups);
  });
  return shards;
}

/// kIsolated sharding: one shard per (input task, non-empty group of that
/// task's own Algorithm 4 partition), exactly the sub-problems OPQ-Extended
/// solves for each input task alone. Queues still come from the shared
/// cache, and interval bounds are powers of two, so input tasks with
/// overlapping ranges reuse each other's builds. Routes by the same count
/// and scatter as PooledShards, one input task at a time.
Result<std::vector<ShardSpec>> IsolatedShards(
    const std::vector<CrowdsourcingTask>& tasks,
    const std::vector<size_t>& offsets, PlanArena* scratch) {
  uint16_t* group = scratch->AllocateArray<uint16_t>(offsets.back());
  std::vector<ShardSpec> shards;
  std::vector<uint32_t> counts;
  std::vector<TaskId*> lists;
  for (size_t k = 0; k < tasks.size(); ++k) {
    const CrowdsourcingTask& task = tasks[k];
    SLADE_ASSIGN_OR_RETURN(
        std::vector<double> uppers,
        ComputeThetaPartition(LogReduction(task.min_threshold()),
                              LogReduction(task.max_threshold())));
    counts.assign(uppers.size(), 0);
    SLADE_RETURN_NOT_OK(
        RouteTask(task, offsets[k], uppers, group, counts.data()));
    lists.assign(uppers.size(), nullptr);
    for (size_t g = 0; g < uppers.size(); ++g) {
      if (counts[g] == 0) continue;
      lists[g] = scratch->AllocateArray<TaskId>(counts[g]);
      ShardSpec shard;
      shard.input_task = k;
      shard.group = g;
      shard.theta_upper = uppers[g];
      shard.ids = lists[g];
      shard.num_ids = counts[g];
      shards.push_back(shard);
      counts[g] = 0;  // from here on: the scatter offset
    }
    ScatterIds(offsets[k], offsets[k + 1], group, lists, counts.data());
  }
  return shards;
}

}  // namespace

const char* BatchSharingName(BatchSharing sharing) {
  switch (sharing) {
    case BatchSharing::kPooled:
      return "pooled";
    case BatchSharing::kIsolated:
      return "isolated";
  }
  return "unknown";
}

std::string BatchReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "batch: %zu tasks, %zu atomic tasks, %zu shards\n"
                "cost %.4f, %llu bins, %.3f s (opq cache: %llu hits, "
                "%llu misses)\n",
                num_tasks(), num_atomic_tasks(), shards.size(), total_cost,
                static_cast<unsigned long long>(total_bins), wall_seconds,
                static_cast<unsigned long long>(opq_cache_hits),
                static_cast<unsigned long long>(opq_cache_misses));
  std::string out = buf;
  for (const ShardStats& s : shards) {
    std::string owner;
    if (s.input_task != ShardStats::kWholeBatch) {
      owner = "task " + std::to_string(s.input_task) + ", ";
    }
    std::snprintf(buf, sizeof(buf),
                  "  shard %zu: %st<=%.6f, %zu tasks, cost %.4f, %llu bins, "
                  "%.4f s%s\n",
                  s.group, owner.c_str(), s.surrogate_threshold,
                  s.num_atomic_tasks, s.cost,
                  static_cast<unsigned long long>(s.bins_posted), s.seconds,
                  s.opq_cache_hit ? " (cache hit)" : "");
    out += buf;
  }
  return out;
}

Result<CrowdsourcingTask> ConcatenateTasks(
    const std::vector<CrowdsourcingTask>& tasks) {
  std::vector<double> thresholds;
  size_t total = 0;
  for (const CrowdsourcingTask& t : tasks) total += t.size();
  thresholds.reserve(total);
  for (const CrowdsourcingTask& t : tasks) {
    thresholds.insert(thresholds.end(), t.thresholds().begin(),
                      t.thresholds().end());
  }
  return CrowdsourcingTask::FromThresholds(std::move(thresholds));
}

namespace {

OpqCacheOptions CacheOptionsFrom(const ResourceOptions& resources) {
  OpqCacheOptions options;
  options.max_bytes = resources.cache_max_bytes;
  options.max_entries = resources.cache_max_entries;
  options.num_shards = resources.cache_shards;
  return options;
}

}  // namespace

DecompositionEngine::DecompositionEngine(EngineOptions options)
    : options_(options),
      cache_(CacheOptionsFrom(options.resources)),
      pool_(std::make_unique<ThreadPool>(
          options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                   : options.num_threads)),
      plan_governor_(0, 0) {}

DecompositionEngine::~DecompositionEngine() = default;

Result<BatchReport> DecompositionEngine::SolveBatch(
    const std::vector<CrowdsourcingTask>& tasks, const BinProfile& profile,
    uint64_t opq_salt) {
  if (tasks.empty()) {
    return Status::InvalidArgument("SolveBatch: empty batch");
  }
  Stopwatch wall;

  std::vector<size_t> offsets = ComputeOffsets(tasks);
  PlanArena scratch;  // per-id groups and shard id lists, freed at return
  SLADE_ASSIGN_OR_RETURN(
      std::vector<ShardSpec> shards,
      options_.sharing == BatchSharing::kPooled
          ? PooledShards(tasks, offsets, pool_.get(), &scratch)
          : IsolatedShards(tasks, offsets, &scratch));
  const size_t num_shards = shards.size();

  // One job per shard: the queue lookup and, below the cut, Algorithm 3
  // and the shard's stats, so a batch without a large shard makes one pool
  // round. Each shard's plan is one or more parts, merged in order; results
  // land in pre-sized slots, so no locking is needed beyond the pool's
  // Wait().
  OpqBuildOptions build_options;
  build_options.node_budget = options_.opq_node_budget;
  std::vector<std::vector<DecompositionPlan>> parts(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (shards[s].num_ids < 2 * kPartIds) {
      parts[s].emplace_back(&plan_governor_);
    }
  }
  std::vector<std::shared_ptr<const OptimalPriorityQueue>> cut_queue(
      num_shards);
  std::vector<ShardStats> shard_stats(num_shards);
  std::vector<Status> shard_status(num_shards);
  ParallelFor(pool_.get(), num_shards, [&](size_t s) {
    Stopwatch shard_watch;
    const ShardSpec& shard = shards[s];
    ShardStats& stats = shard_stats[s];
    stats.group = shard.group;
    stats.input_task = shard.input_task;
    stats.theta_upper = shard.theta_upper;
    stats.surrogate_threshold = InverseLogReduction(shard.theta_upper);
    stats.num_atomic_tasks = shard.num_ids;
    auto lookup = cache_.GetOrBuild(profile, stats.surrogate_threshold,
                                    build_options, opq_salt);
    if (!lookup.ok()) {
      shard_status[s] = lookup.status();
      return;
    }
    stats.opq_cache_hit = lookup->hit;
    if (parts[s].empty()) {
      cut_queue[s] = lookup->queue;  // large: assigned in parts below
    } else {
      DecompositionPlan& plan = parts[s][0];
      Status st = RunOpqAssignment(*lookup->queue, shard.ids, shard.num_ids,
                                   profile, &plan);
      if (!st.ok()) {
        shard_status[s] = st;
        return;
      }
      stats.cost = plan.TotalCost(profile);
      stats.bins_posted = plan.TotalBinInstances();
    }
    stats.seconds = shard_watch.ElapsedSeconds();
  });
  for (const Status& st : shard_status) {
    SLADE_RETURN_NOT_OK(st);
  }

  // Large shards: cut at multiples of L, the LCM of the shard's Algorithm 3
  // front element. Every part but the last holds whole L-blocks (about
  // kPartIds ids); the last keeps at least one block plus the remainder.
  struct PartJob {
    size_t shard = 0;
    const TaskId* ids = nullptr;
    size_t num_ids = 0;
    DecompositionPlan* plan = nullptr;
    double seconds = 0.0;
    Status status;
  };
  std::vector<PartJob> part_jobs;
  for (size_t s = 0; s < num_shards; ++s) {
    if (cut_queue[s] == nullptr) continue;
    const size_t n = shards[s].num_ids;
    const Combination* front = OpqFrontElement(*cut_queue[s], n);
    const size_t lcm = front != nullptr ? static_cast<size_t>(front->lcm()) : n;
    const size_t part_ids = std::max<size_t>(1, kPartIds / lcm) * lcm;
    const size_t num_parts = std::max<size_t>(1, n / part_ids);
    for (size_t p = 0; p < num_parts; ++p) {
      parts[s].emplace_back(&plan_governor_);
    }
    for (size_t p = 0; p < num_parts; ++p) {
      PartJob job;
      job.shard = s;
      job.ids = shards[s].ids + p * part_ids;
      job.num_ids = p + 1 == num_parts ? n - p * part_ids : part_ids;
      job.plan = &parts[s][p];
      part_jobs.push_back(std::move(job));
    }
  }
  ParallelFor(pool_.get(), part_jobs.size(), [&](size_t j) {
    Stopwatch part_watch;
    PartJob& job = part_jobs[j];
    job.status = RunOpqAssignment(*cut_queue[job.shard], job.ids,
                                  job.num_ids, profile, job.plan);
    job.seconds = part_watch.ElapsedSeconds();
  });
  // Jobs are in (shard, part) order, so each large shard's cost is one
  // running sum over its placements in plan order -- the very additions
  // of a single-part TotalCost.
  for (const PartJob& job : part_jobs) {
    SLADE_RETURN_NOT_OK(job.status);
    ShardStats& stats = shard_stats[job.shard];
    stats.cost = job.plan->TotalCost(profile, stats.cost);
    stats.bins_posted += job.plan->TotalBinInstances();
    stats.seconds += job.seconds;
  }

  // Merge in shard and part order: deterministic regardless of execution
  // order. Shard ids are already global, so the merge is pure column
  // concatenation into a once-reserved arena; a single-part batch just
  // moves its plan.
  BatchReport report;
  report.task_offsets = std::move(offsets);
  for (size_t s = 0; s < num_shards; ++s) {
    report.total_cost += shard_stats[s].cost;
    report.total_bins += shard_stats[s].bins_posted;
    report.opq_cache_hits += shard_stats[s].opq_cache_hit ? 1 : 0;
    report.opq_cache_misses += shard_stats[s].opq_cache_hit ? 0 : 1;
  }
  if (num_shards == 1 && parts[0].size() == 1) {
    report.plan = std::move(parts[0][0]);
  } else {
    DecompositionPlan merged(&plan_governor_);
    size_t total_placements = 0;
    size_t total_ids = 0;
    for (const std::vector<DecompositionPlan>& shard_parts : parts) {
      for (const DecompositionPlan& plan : shard_parts) {
        total_placements += plan.num_placements();
        total_ids += plan.num_task_ids();
      }
    }
    merged.Reserve(total_placements, total_ids);
    for (const std::vector<DecompositionPlan>& shard_parts : parts) {
      for (const DecompositionPlan& plan : shard_parts) {
        merged.AppendColumns(plan);
      }
    }
    report.plan = std::move(merged);
  }
  // The report outlives this engine call (and possibly the engine); keep
  // the governor's peak counters but drop the live charges and the
  // pointer before the plan escapes.
  report.plan.DetachGovernor();
  report.shards = std::move(shard_stats);
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

Result<BatchReport> SolveBatchSequential(
    const std::vector<CrowdsourcingTask>& tasks, const BinProfile& profile,
    const SolverOptions& options) {
  if (tasks.empty()) {
    return Status::InvalidArgument("SolveBatchSequential: empty batch");
  }
  Stopwatch wall;
  std::unique_ptr<Solver> solver = MakeSolver(SolverKind::kOpqExtended,
                                              options);
  BatchReport report;
  report.task_offsets = ComputeOffsets(tasks);
  for (size_t k = 0; k < tasks.size(); ++k) {
    SLADE_ASSIGN_OR_RETURN(DecompositionPlan plan,
                           solver->Solve(tasks[k], profile));
    report.total_cost += plan.TotalCost(profile);
    report.total_bins += plan.TotalBinInstances();
    report.plan.AppendRange(plan, 0, plan.num_placements(),
                            static_cast<int64_t>(report.task_offsets[k]));
  }
  report.wall_seconds = wall.ElapsedSeconds();
  return report;
}

}  // namespace slade
