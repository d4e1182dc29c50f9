#include "solver/baseline_solver.h"

#include <algorithm>
#include <numeric>

#include "common/random.h"
#include "common/thread_pool.h"
#include "solver/cip.h"

namespace slade {

namespace {

// Generates the sampled combination-instance columns for one chunk of
// `chunk` tasks with demands `thetas` (chunk-local indexing).
std::vector<CipColumn> GenerateColumns(const BinProfile& profile,
                                       size_t chunk,
                                       uint32_t columns_per_cardinality,
                                       Xoshiro256& rng) {
  std::vector<CipColumn> columns;
  const uint32_t m = profile.max_cardinality();

  // All singletons: guarantees every row is coverable.
  for (uint32_t i = 0; i < chunk; ++i) {
    CipColumn col;
    col.cardinality = 1;
    col.rows = {i};
    col.cost = profile.bin(1).cost;
    col.weight = profile.bin(1).log_weight();
    columns.push_back(std::move(col));
  }

  std::vector<uint32_t> perm(chunk);
  std::iota(perm.begin(), perm.end(), 0);

  for (uint32_t l = 2; l <= m; ++l) {
    const TaskBin& bin = profile.bin(l);
    const size_t take = std::min<size_t>(l, chunk);

    // Consecutive tiling: offsets 0, l, 2l, ...
    for (size_t start = 0; start < chunk; start += take) {
      CipColumn col;
      col.cardinality = l;
      const size_t end = std::min(start + take, chunk);
      for (size_t i = start; i < end; ++i) {
        col.rows.push_back(static_cast<uint32_t>(i));
      }
      col.cost = bin.cost;
      col.weight = bin.log_weight();
      columns.push_back(std::move(col));
    }

    // Random subsets (partial Fisher-Yates per column).
    for (uint32_t s = 0; s < columns_per_cardinality; ++s) {
      for (size_t i = 0; i < take; ++i) {
        const size_t j =
            i + static_cast<size_t>(rng.NextBounded(chunk - i));
        std::swap(perm[i], perm[j]);
      }
      CipColumn col;
      col.cardinality = l;
      col.rows.assign(perm.begin(), perm.begin() + take);
      std::sort(col.rows.begin(), col.rows.end());
      col.cost = bin.cost;
      col.weight = bin.log_weight();
      columns.push_back(std::move(col));
    }
  }
  return columns;
}

// Emits the integer CIP solution of one chunk into the plan, mapping
// chunk-local rows through `global_ids` starting at `offset`.
void EmitChunkPlan(const CipInstance& inst, const std::vector<uint64_t>& y,
                   const std::vector<TaskId>& global_ids, size_t offset,
                   DecompositionPlan* plan) {
  for (size_t j = 0; j < inst.columns.size(); ++j) {
    if (y[j] == 0) continue;
    const CipColumn& col = inst.columns[j];
    std::vector<TaskId> tasks;
    tasks.reserve(col.rows.size());
    for (uint32_t row : col.rows) tasks.push_back(global_ids[offset + row]);
    plan->Add(col.cardinality, static_cast<uint32_t>(y[j]), tasks);
  }
}

}  // namespace

Result<DecompositionPlan> BaselineSolver::Solve(const CrowdsourcingTask& task,
                                                const BinProfile& profile) {
  const size_t n = task.size();
  const size_t chunk_size = std::max<size_t>(
      std::min<size_t>(options_.baseline_chunk_size, n), 1);

  std::vector<TaskId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);

  // For homogeneous thresholds every full chunk's CIP is identical up to
  // task relabeling (modulo column sampling), so the caller may opt into
  // solving once and replicating.
  const bool replicate =
      options_.baseline_reuse_homogeneous_chunks && task.is_homogeneous();

  struct ChunkSpec {
    size_t offset = 0;
    size_t size = 0;
  };
  std::vector<ChunkSpec> chunks;
  for (size_t offset = 0; offset < n; offset += chunk_size) {
    chunks.push_back({offset, std::min(chunk_size, n - offset)});
  }

  // Solves chunk `c` into its own plan slot. Chunk seeds depend only on
  // the chunk index, so the outcome is schedule-independent.
  std::vector<DecompositionPlan> chunk_plans(chunks.size());
  std::vector<Status> chunk_status(chunks.size());
  auto solve_chunk = [&](size_t c) {
    const auto [offset, chunk] = chunks[c];
    Xoshiro256 rng(options_.seed ^ (0x9E3779B97F4A7C15ULL * (c + 1)));
    CipInstance inst;
    inst.demand.reserve(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      inst.demand.push_back(task.theta(ids[offset + i]));
    }
    inst.columns = GenerateColumns(
        profile, chunk, options_.baseline_columns_per_cardinality, rng);

    CipSolveOptions cip_options;
    cip_options.seed = options_.seed + c;
    cip_options.rounding_rounds = options_.baseline_rounding_rounds;
    auto solution = SolveCip(inst, cip_options);
    if (!solution.ok()) {
      chunk_status[c] = solution.status();
      return;
    }
    EmitChunkPlan(inst, solution->y, ids, offset, &chunk_plans[c]);
  };

  DecompositionPlan plan;
  if (replicate) {
    // Serial path: solve the first chunk of each distinct size, replay it
    // for equally-sized later chunks (relabeling the tasks).
    CipInstance cached_instance;
    std::vector<uint64_t> cached_y;
    bool have_cached = false;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const auto [offset, chunk] = chunks[c];
      if (have_cached && chunk == cached_instance.demand.size()) {
        EmitChunkPlan(cached_instance, cached_y, ids, offset, &plan);
        continue;
      }
      Xoshiro256 rng(options_.seed ^ (0x9E3779B97F4A7C15ULL * (c + 1)));
      CipInstance inst;
      inst.demand.reserve(chunk);
      for (size_t i = 0; i < chunk; ++i) {
        inst.demand.push_back(task.theta(ids[offset + i]));
      }
      inst.columns = GenerateColumns(
          profile, chunk, options_.baseline_columns_per_cardinality, rng);
      CipSolveOptions cip_options;
      cip_options.seed = options_.seed + c;
      cip_options.rounding_rounds = options_.baseline_rounding_rounds;
      SLADE_ASSIGN_OR_RETURN(CipSolution solution,
                             SolveCip(inst, cip_options));
      EmitChunkPlan(inst, solution.y, ids, offset, &plan);
      cached_instance = std::move(inst);
      cached_y = std::move(solution.y);
      have_cached = true;
    }
    return plan;
  }

  if (options_.baseline_threads > 1 && chunks.size() > 1) {
    ThreadPool pool(options_.baseline_threads);
    ParallelFor(&pool, chunks.size(), solve_chunk);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) solve_chunk(c);
  }
  size_t total_placements = plan.num_placements();
  size_t total_ids = plan.num_task_ids();
  for (const DecompositionPlan& chunk_plan : chunk_plans) {
    total_placements += chunk_plan.num_placements();
    total_ids += chunk_plan.num_task_ids();
  }
  plan.Reserve(total_placements, total_ids);
  for (size_t c = 0; c < chunks.size(); ++c) {
    SLADE_RETURN_NOT_OK(chunk_status[c]);
    plan.AppendColumns(chunk_plans[c]);
  }
  return plan;
}

}  // namespace slade
