// Plan pipeline kernel: the arena-backed DecompositionPlan hot path
// (solve -> merge -> validate -> account -> split -> restamp), swept over
// batch sizes. Reports per-stage wall time and heap allocations.
//
// Three allocation contracts are enforced with a global operator-new
// counter (exit 1 on breach):
//   * validation and cost accounting over a built plan allocate O(1)
//     scratch -- never O(placements);
//   * a Clear()+restamp cycle reuses the arena's chunks instead of
//     growing them, so steady-state plan reuse is allocation-free.
//
// Emits BENCH_plan_pipeline.json. `--smoke` (or SLADE_BENCH_FAST=1)
// shrinks the sweep for CI.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "solver/plan.h"
#include "solver/plan_validator.h"
#include "workload/workload.h"

// -- Global allocation counter ----------------------------------------------
// Counts every operator-new in the process; deltas around a single-threaded
// pass isolate that pass's allocations.

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// ---------------------------------------------------------------------------

namespace {

using namespace slade;

struct Timed {
  double seconds = 0.0;      // per pass, averaged over reps
  uint64_t allocations = 0;  // per pass, single measured run
};

// Sink defeating dead-code elimination of pure accounting passes.
volatile double g_sink = 0.0;

// Times `pass` by repeating it until ~0.2s of wall time accumulates (min
// 1 rep), then measures one extra run's allocation delta.
template <typename Fn>
Timed Measure(Fn&& pass) {
  pass();  // warmup
  uint64_t reps = 0;
  Stopwatch watch;
  do {
    pass();
    ++reps;
  } while (watch.ElapsedSeconds() < 0.2 && reps < 10'000);
  Timed out;
  out.seconds = watch.ElapsedSeconds() / static_cast<double>(reps);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  pass();
  out.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return out;
}

void RequireBudget(const char* what, uint64_t allocations, uint64_t allowance,
                   size_t num_placements) {
  if (allocations > allowance) {
    std::cerr << what << " allocated " << allocations << " times over "
              << num_placements << " placements (allowance " << allowance
              << ") -- per-placement allocation has crept back in\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = slade_bench::FastMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::cout << "Plan pipeline: arena-backed flat-column passes\n(Jelly, "
               "|B|=20, 20 atomic tasks per crowdsourcing task, "
               "t_i ~ N(0.9, 0.03)).\n";

  std::vector<size_t> batch_sizes = {2'000, 10'000};
  if (smoke) batch_sizes = {500};
  constexpr size_t kAtomicPerTask = 20;
  constexpr uint32_t kThreads = 4;

  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;

  slade_bench::BenchJsonWriter json("plan_pipeline");
  TablePrinter table({"tasks", "stage", "ms", "allocs/pass"});

  for (size_t num_tasks : batch_sizes) {
    auto batch = MakeBatchWorkload(DatasetKind::kJelly, num_tasks,
                                   kAtomicPerTask, spec, 20,
                                   ExperimentDefaults::kSeed);
    if (!batch.ok()) {
      std::cerr << "workload failed: " << batch.status().ToString() << "\n";
      return 1;
    }
    const BinProfile& profile = batch->profile;
    const std::string config = "n=" + std::to_string(num_tasks);

    // One cold engine solve supplies the plan the read stages consume.
    EngineOptions options;
    options.num_threads = kThreads;
    auto report = [&] {
      DecompositionEngine engine(options);
      return engine.SolveBatch(batch->tasks, profile);
    }();
    if (!report.ok()) {
      std::cerr << "solve failed: " << report.status().ToString() << "\n";
      return 1;
    }
    const DecompositionPlan& plan = report->plan;
    auto merged = ConcatenateTasks(batch->tasks);
    if (!merged.ok()) return 1;
    const size_t n = merged->size();

    // --- solve: engine batch, cold cache, columnar shard merge -------------
    const Timed solve = Measure([&] {
      DecompositionEngine engine(options);
      auto r = engine.SolveBatch(batch->tasks, profile);
      if (!r.ok()) std::exit(1);
      g_sink = r->total_cost;
    });

    // --- validate: one fused sweep over the columns ------------------------
    const Timed validate = Measure([&] {
      auto v = ValidatePlan(plan, *merged, profile);
      if (!v.ok() || !v->feasible) std::exit(1);
      g_sink = v->worst_log_margin;
    });

    // --- account: cost + bin census + per-task reliability -----------------
    const Timed account = Measure([&] {
      g_sink = plan.TotalCost(profile);
      g_sink += static_cast<double>(plan.TotalBinInstances());
      g_sink += plan.PerTaskReliability(profile, n).back();
    });

    // --- split: per-requester slicing of the merged plan -------------------
    std::vector<RequesterSpan> spans;
    spans.reserve(batch->tasks.size());
    for (size_t k = 0; k < batch->tasks.size(); ++k) {
      spans.push_back({"r" + std::to_string(k % 16), k, 1});
    }
    const Timed split = Measure([&] {
      auto slices = PlanSplitter::SplitBySpans(*report, profile, spans);
      if (!slices.ok()) std::exit(1);
      g_sink = slices->back().cost;
    });

    // --- restamp: Clear() + AppendColumns over a warmed arena --------------
    DecompositionPlan reuse;
    const Timed restamp = Measure([&] {
      reuse.Clear();
      reuse.AppendColumns(plan);
      g_sink = static_cast<double>(reuse.num_placements());
    });

    // Allocation contracts. Read passes may allocate scratch (epoch
    // array, LUTs, report vectors) but never per placement; the restamp
    // cycle must live entirely inside the already-reserved arena.
    RequireBudget("validate", validate.allocations, 64,
                  plan.num_placements());
    RequireBudget("accounting", account.allocations, 64,
                  plan.num_placements());
    RequireBudget("restamp", restamp.allocations, 16, plan.num_placements());

    struct StageRow {
      const char* stage;
      const Timed* timed;
    };
    for (const StageRow& row :
         {StageRow{"solve", &solve}, StageRow{"validate", &validate},
          StageRow{"account", &account}, StageRow{"split", &split},
          StageRow{"restamp", &restamp}}) {
      table.AddRow({std::to_string(num_tasks), row.stage,
                    TablePrinter::FormatDouble(row.timed->seconds * 1e3, 4),
                    std::to_string(row.timed->allocations)});
      json.BeginRecord();
      json.Field("stage", row.stage);
      json.Field("config", config);
      json.Field("num_tasks", static_cast<double>(num_tasks));
      json.Field("threads", static_cast<double>(kThreads));
      json.Field("placements", static_cast<double>(plan.num_placements()));
      json.Field("seconds", row.timed->seconds);
      json.Field("allocations", static_cast<double>(row.timed->allocations));
    }
  }

  PrintBanner(std::cout,
              "Plan pipeline: per-pass wall time (allocs = heap allocations "
              "per pass)");
  table.Print(std::cout);
  json.Write();
  return 0;
}
