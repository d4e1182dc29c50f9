#include "engine/decomposition_engine.h"

#include <algorithm>
#include <cstdio>

#include "common/math_util.h"
#include "common/stopwatch.h"
#include "solver/opq_set_builder.h"
#include "solver/opq_solver.h"

namespace slade {

namespace {

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
  std::vector<TaskId> ids;
};

/// kPooled sharding: one shard per non-empty Algorithm 4 threshold group of
/// the batch-wide range; atomic tasks of every input task pool together.
Result<std::vector<ShardSpec>> PooledShards(
    const std::vector<CrowdsourcingTask>& tasks,
    const std::vector<size_t>& offsets) {
  double t_min = tasks.front().min_threshold();
  double t_max = tasks.front().max_threshold();
  for (const CrowdsourcingTask& t : tasks) {
    t_min = std::min(t_min, t.min_threshold());
    t_max = std::max(t_max, t.max_threshold());
  }
  SLADE_ASSIGN_OR_RETURN(
      std::vector<double> uppers,
      ComputeThetaPartition(LogReduction(t_min), LogReduction(t_max)));

  // Route every atomic task (by global id) to the lowest interval whose
  // upper bound covers its log threshold -- Algorithm 5 lines 5-7, applied
  // batch-wide. Iterating tasks in order keeps shard id lists sorted.
  std::vector<std::vector<TaskId>> shard_ids(uppers.size());
  for (size_t k = 0; k < tasks.size(); ++k) {
    const CrowdsourcingTask& task = tasks[k];
    for (size_t i = 0; i < task.size(); ++i) {
      SLADE_ASSIGN_OR_RETURN(
          size_t g, GroupIndexOf(uppers, task.theta(static_cast<TaskId>(i))));
      shard_ids[g].push_back(static_cast<TaskId>(offsets[k] + i));
    }
  }

  std::vector<ShardSpec> shards;
  for (size_t g = 0; g < shard_ids.size(); ++g) {
    if (shard_ids[g].empty()) continue;
    ShardSpec shard;
    shard.group = g;
    shard.theta_upper = uppers[g];
    shard.ids = std::move(shard_ids[g]);
    shards.push_back(std::move(shard));
  }
  return shards;
}

/// kIsolated sharding: one shard per (input task, non-empty group of that
/// task's own Algorithm 4 partition), exactly the sub-problems OPQ-Extended
/// solves for each input task alone. Queues still come from the shared
/// cache, and interval bounds are powers of two, so input tasks with
/// overlapping ranges reuse each other's builds.
Result<std::vector<ShardSpec>> IsolatedShards(
    const std::vector<CrowdsourcingTask>& tasks,
    const std::vector<size_t>& offsets) {
  std::vector<ShardSpec> shards;
  for (size_t k = 0; k < tasks.size(); ++k) {
    const CrowdsourcingTask& task = tasks[k];
    SLADE_ASSIGN_OR_RETURN(
        std::vector<double> uppers,
        ComputeThetaPartition(LogReduction(task.min_threshold()),
                              LogReduction(task.max_threshold())));
    std::vector<std::vector<TaskId>> group_ids(uppers.size());
    for (size_t i = 0; i < task.size(); ++i) {
      SLADE_ASSIGN_OR_RETURN(
          size_t g, GroupIndexOf(uppers, task.theta(static_cast<TaskId>(i))));
      group_ids[g].push_back(static_cast<TaskId>(offsets[k] + i));
    }
    for (size_t g = 0; g < group_ids.size(); ++g) {
      if (group_ids[g].empty()) continue;
      ShardSpec shard;
      shard.input_task = k;
      shard.group = g;
      shard.theta_upper = uppers[g];
      shard.ids = std::move(group_ids[g]);
      shards.push_back(std::move(shard));
    }
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
      plan_governor_(options.resources.plan_arena_max_bytes, 0) {}

DecompositionEngine::~DecompositionEngine() = default;

Result<BatchReport> DecompositionEngine::SolveBatch(
    const std::vector<CrowdsourcingTask>& tasks, const BinProfile& profile,
    uint64_t opq_salt) {
  if (tasks.empty()) {
    return Status::InvalidArgument("SolveBatch: empty batch");
  }
  Stopwatch wall;

  std::vector<size_t> offsets = ComputeOffsets(tasks);
  SLADE_ASSIGN_OR_RETURN(
      std::vector<ShardSpec> shards,
      options_.sharing == BatchSharing::kPooled
          ? PooledShards(tasks, offsets)
          : IsolatedShards(tasks, offsets));

  // Per-shard solves on the pool. Results land in pre-sized slots; no
  // locking is needed beyond the pool's Wait().
  OpqBuildOptions build_options;
  build_options.node_budget = options_.opq_node_budget;
  std::vector<DecompositionPlan> shard_plans;
  shard_plans.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    shard_plans.emplace_back(&plan_governor_);
  }
  std::vector<ShardStats> shard_stats(shards.size());
  std::vector<Status> shard_status(shards.size());
  ParallelFor(pool_.get(), shards.size(), [&](size_t s) {
    Stopwatch shard_watch;
    const ShardSpec& shard = shards[s];
    const double surrogate = InverseLogReduction(shard.theta_upper);
    auto lookup =
        cache_.GetOrBuild(profile, surrogate, build_options, opq_salt);
    if (!lookup.ok()) {
      shard_status[s] = lookup.status();
      return;
    }
    Status st = RunOpqAssignment(*lookup->queue, shard.ids, profile,
                                 &shard_plans[s]);
    if (!st.ok()) {
      shard_status[s] = st;
      return;
    }
    ShardStats& stats = shard_stats[s];
    stats.group = shard.group;
    stats.input_task = shard.input_task;
    stats.theta_upper = shard.theta_upper;
    stats.surrogate_threshold = surrogate;
    stats.num_atomic_tasks = shard.ids.size();
    stats.cost = shard_plans[s].TotalCost(profile);
    stats.bins_posted = shard_plans[s].TotalBinInstances();
    stats.opq_cache_hit = lookup->hit;
    stats.seconds = shard_watch.ElapsedSeconds();
  });
  for (const Status& st : shard_status) {
    SLADE_RETURN_NOT_OK(st);
  }

  // Merge in shard order: deterministic regardless of execution order.
  // Shard ids are already global, so the merge is pure column
  // concatenation into a once-reserved arena; a single-shard batch just
  // moves the shard plan.
  BatchReport report;
  report.task_offsets = std::move(offsets);
  for (size_t s = 0; s < shards.size(); ++s) {
    report.total_cost += shard_stats[s].cost;
    report.total_bins += shard_stats[s].bins_posted;
    report.opq_cache_hits += shard_stats[s].opq_cache_hit ? 1 : 0;
    report.opq_cache_misses += shard_stats[s].opq_cache_hit ? 0 : 1;
  }
  if (shards.size() == 1) {
    report.plan = std::move(shard_plans[0]);
  } else {
    DecompositionPlan merged(&plan_governor_);
    size_t total_placements = 0;
    size_t total_ids = 0;
    for (const DecompositionPlan& plan : shard_plans) {
      total_placements += plan.num_placements();
      total_ids += plan.num_task_ids();
    }
    merged.Reserve(total_placements, total_ids);
    for (const DecompositionPlan& plan : shard_plans) {
      merged.AppendColumns(plan);
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
