// Resource pressure on the governed engine stack: what does bounding the
// OPQ cache and the admission queue cost?
//
// Part 1 (batch): a DecompositionEngine serves interleaved batches from P
// distinct platform profiles. Unbounded, the cache's working set is one
// entry per (profile, decision-key interval that the batches' threshold
// groups fall into) plus one copy of each profile; this harness measures
// that working set, then re-runs with the byte capacity at the working set
// and at a quarter of it, reporting hit rate, eviction rate, resident
// bytes and throughput. With capacity >= working set the bounded cache
// must match the unbounded baseline within noise -- eviction only starts
// to hurt once the capacity actually cuts into the working set.
//
// Part 2 (stream): a StreamingEngine takes a burst of submissions against
// a small admission queue under each backpressure policy x cache capacity,
// reporting delivered/rejected fractions and delivered-submission latency
// (mean / p95).
//
// Emits BENCH_resource_pressure.json alongside the tables.

#include <algorithm>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/streaming_engine.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace {

using namespace slade;

double P95(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() * 95 / 100];
}

// --- Part 1: cache capacity x distinct-profile count (batch engine) --------

struct ProfileWorkload {
  BinProfile profile;
  std::vector<CrowdsourcingTask> tasks;
};

/// P structurally distinct profiles (dataset model x max cardinality), each
/// with a fixed heterogeneous workload so every round re-requests the same
/// (profile, threshold-group) lookups.
std::vector<ProfileWorkload> MakeProfileWorkloads(size_t num_profiles,
                                                  size_t tasks_per_batch,
                                                  size_t atomic_per_task) {
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;

  std::vector<ProfileWorkload> workloads;
  workloads.reserve(num_profiles);
  for (size_t p = 0; p < num_profiles; ++p) {
    const DatasetKind dataset =
        (p % 2 == 0) ? DatasetKind::kJelly : DatasetKind::kSmic;
    const uint32_t max_cardinality = 4 + static_cast<uint32_t>(p / 2) % 10;
    auto batch =
        MakeBatchWorkload(dataset, tasks_per_batch, atomic_per_task, spec,
                          max_cardinality, /*seed=*/0x9e55 + p);
    if (!batch.ok()) {
      std::cerr << "workload failed: " << batch.status().ToString() << "\n";
      std::exit(1);
    }
    workloads.push_back(
        ProfileWorkload{std::move(batch->profile), std::move(batch->tasks)});
  }
  return workloads;
}

struct BatchRun {
  double wall_seconds = 0.0;
  uint64_t atomic_tasks = 0;
  CacheStats cache;
};

/// `rounds` passes over all P profiles through one engine (one shared
/// cache), interleaved profile by profile -- the adversarial order for a
/// bounded cache.
BatchRun RunBatchRounds(const std::vector<ProfileWorkload>& workloads,
                        size_t rounds, uint64_t cache_max_bytes) {
  EngineOptions options;
  options.resources.cache_max_bytes = cache_max_bytes;
  DecompositionEngine engine(options);
  BatchRun run;
  Stopwatch wall;
  for (size_t round = 0; round < rounds; ++round) {
    for (const ProfileWorkload& workload : workloads) {
      auto report = engine.SolveBatch(workload.tasks, workload.profile);
      if (!report.ok()) {
        std::cerr << "batch failed: " << report.status().ToString() << "\n";
        std::exit(1);
      }
      run.atomic_tasks += report->num_atomic_tasks();
    }
  }
  run.wall_seconds = wall.ElapsedSeconds();
  run.cache = engine.cache().stats();
  return run;
}

// --- Part 2: backpressure policy x cache capacity (streaming burst) --------

struct StreamRun {
  uint64_t delivered = 0;
  uint64_t failed = 0;  ///< rejected + shed, all clean ResourceExhausted
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double wall_seconds = 0.0;
  CacheStats cache;
  StreamingStats stats;
};

StreamRun RunStreamBurst(const BinProfile& profile, size_t num_submissions,
                         BackpressurePolicy policy,
                         uint64_t cache_max_bytes) {
  StreamingOptions options;
  options.max_pending_submissions = 8;
  options.max_delay_seconds = 3600.0;  // size/backpressure cut the batches
  options.resources.backpressure = policy;
  options.resources.queue_max_atomic_tasks = 256;
  options.resources.cache_max_bytes = cache_max_bytes;

  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;

  StreamRun run;
  Stopwatch wall;
  StreamingEngine engine(profile, options);
  std::vector<std::future<Result<RequesterPlan>>> futures;
  futures.reserve(num_submissions);
  for (size_t s = 0; s < num_submissions; ++s) {
    auto thresholds =
        GenerateThresholds(spec, 10 + s % 21, /*seed=*/0xbead + s);
    auto task = CrowdsourcingTask::FromThresholds(
        std::move(thresholds).ValueOrDie());
    futures.push_back(engine.Submit("r" + std::to_string(s % 8),
                                    {std::move(task).ValueOrDie()}));
  }
  engine.Drain();
  run.wall_seconds = wall.ElapsedSeconds();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  for (auto& future : futures) {
    auto slice = future.get();
    if (slice.ok()) {
      run.delivered += 1;
      latencies_ms.push_back(slice->latency_seconds * 1e3);
    } else if (slice.status().IsResourceExhausted()) {
      run.failed += 1;
    } else {
      std::cerr << "stream failed: " << slice.status().ToString() << "\n";
      std::exit(1);
    }
  }
  double sum = 0.0;
  for (double l : latencies_ms) sum += l;
  run.mean_latency_ms =
      latencies_ms.empty() ? 0.0 : sum / latencies_ms.size();
  run.p95_latency_ms = P95(std::move(latencies_ms));
  run.cache = engine.cache().stats();
  run.stats = engine.stats();
  return run;
}

}  // namespace

int main() {
  std::cout << "Resource pressure: bounded OPQ cache and admission "
               "backpressure\n";

  size_t rounds = 6;
  size_t tasks_per_batch = 96;
  size_t stream_submissions = 240;
  std::vector<size_t> profile_counts = {1, 4, 12};
  if (slade_bench::FastMode()) {
    rounds = 4;
    tasks_per_batch = 32;
    stream_submissions = 80;
    profile_counts = {1, 4};
  }

  slade_bench::BenchJsonWriter json("resource_pressure");

  // --- Part 1 -----------------------------------------------------------
  TablePrinter batch_table({"profiles", "cache cap", "hit rate", "evictions",
                            "resident B", "peak B", "atomic/s", "wall s"});
  for (size_t num_profiles : profile_counts) {
    const auto workloads =
        MakeProfileWorkloads(num_profiles, tasks_per_batch,
                             /*atomic_per_task=*/20);
    // Unbounded baseline: its resident bytes are the working set.
    const BatchRun unbounded = RunBatchRounds(workloads, rounds, 0);
    const uint64_t working_set = unbounded.cache.bytes;
    struct Capacity {
      const char* name;
      uint64_t max_bytes;
    };
    // Capacity exactly at the working set must match unbounded (entries
    // are only evicted when the cache actually exceeds a limit); a quarter
    // forces constant eviction.
    const Capacity capacities[] = {
        {"unbounded", 0},
        {"working-set", working_set},
        {"quarter", working_set / 4},
    };
    for (const Capacity& capacity : capacities) {
      const BatchRun run =
          capacity.max_bytes == 0
              ? unbounded  // reuse the baseline run
              : RunBatchRounds(workloads, rounds, capacity.max_bytes);
      const double lookups =
          static_cast<double>(run.cache.hits + run.cache.misses);
      const double hit_rate = run.cache.hit_rate();
      const double eviction_rate =
          lookups == 0.0 ? 0.0 : run.cache.evictions / lookups;
      const double throughput =
          run.wall_seconds == 0.0 ? 0.0 : run.atomic_tasks / run.wall_seconds;
      batch_table.AddRow(
          {std::to_string(num_profiles), capacity.name,
           TablePrinter::FormatDouble(hit_rate * 100.0, 1) + "%",
           std::to_string(run.cache.evictions),
           std::to_string(run.cache.bytes),
           std::to_string(run.cache.peak_bytes),
           TablePrinter::FormatDouble(throughput, 0),
           TablePrinter::FormatDouble(run.wall_seconds, 3)});
      json.BeginRecord();
      json.Field("mode", "batch");
      json.Field("distinct_profiles", static_cast<double>(num_profiles));
      json.Field("capacity", capacity.name);
      json.Field("cache_max_bytes", static_cast<double>(capacity.max_bytes));
      json.Field("hit_rate", hit_rate);
      json.Field("eviction_rate", eviction_rate);
      json.Field("evictions", static_cast<double>(run.cache.evictions));
      json.Field("resident_bytes", static_cast<double>(run.cache.bytes));
      json.Field("atomic_per_second", throughput);
      json.Field("wall_seconds", run.wall_seconds);
    }
  }
  PrintBanner(std::cout,
              "Batch: cache capacity x distinct profiles (interleaved "
              "rounds; capacity >= working set must match unbounded)");
  batch_table.Print(std::cout);

  // --- Part 2 -----------------------------------------------------------
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 10);
  if (!profile.ok()) {
    std::cerr << "profile failed: " << profile.status().ToString() << "\n";
    return 1;
  }
  TablePrinter stream_table({"policy", "cache cap", "delivered", "failed",
                             "rejected frac", "mean lat ms", "p95 lat ms",
                             "hit rate", "wall s"});
  for (BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kReject,
        BackpressurePolicy::kShedOldest}) {
    for (uint64_t cache_max_bytes : {uint64_t{0}, uint64_t{64 * 1024}}) {
      const StreamRun run = RunStreamBurst(*profile, stream_submissions,
                                           policy, cache_max_bytes);
      const double rejected_fraction =
          static_cast<double>(run.failed) /
          static_cast<double>(run.delivered + run.failed);
      stream_table.AddRow(
          {BackpressurePolicyName(policy),
           cache_max_bytes == 0 ? "unbounded" : "64KiB",
           std::to_string(run.delivered), std::to_string(run.failed),
           TablePrinter::FormatDouble(rejected_fraction * 100.0, 1) + "%",
           TablePrinter::FormatDouble(run.mean_latency_ms, 3),
           TablePrinter::FormatDouble(run.p95_latency_ms, 3),
           TablePrinter::FormatDouble(run.cache.hit_rate() * 100.0, 1) + "%",
           TablePrinter::FormatDouble(run.wall_seconds, 3)});
      json.BeginRecord();
      json.Field("mode", "stream");
      json.Field("policy", BackpressurePolicyName(policy));
      json.Field("cache_max_bytes", static_cast<double>(cache_max_bytes));
      json.Field("submissions", static_cast<double>(stream_submissions));
      json.Field("delivered", static_cast<double>(run.delivered));
      json.Field("rejected_fraction", rejected_fraction);
      json.Field("mean_latency_ms", run.mean_latency_ms);
      json.Field("p95_latency_ms", run.p95_latency_ms);
      json.Field("hit_rate", run.cache.hit_rate());
      json.Field("evictions", static_cast<double>(run.cache.evictions));
      json.Field("shed", static_cast<double>(run.stats.shed));
      json.Field("rejected", static_cast<double>(run.stats.rejected));
      json.Field("blocked", static_cast<double>(run.stats.blocked));
      json.Field("wall_seconds", run.wall_seconds);
    }
  }
  PrintBanner(std::cout,
              "Stream: backpressure policy x cache capacity (burst "
              "admission against a 256-atomic queue)");
  stream_table.Print(std::cout);

  json.Write();
  return 0;
}
