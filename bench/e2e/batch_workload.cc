// batch-pooled: the Section 7 heterogeneous setting at 1M atomic tasks,
// solved with pooled sharing and split into per-requester plans, over
// and over on a warm engine.

#include <algorithm>
#include <atomic>

#include "e2e.h"
#include "engine/plan_splitter.h"
#include "solver/plan_arena.h"
#include "solver/plan_validator.h"
#include "workload/workload.h"

namespace slade_e2e {

namespace {

constexpr size_t kTasks = 2000;
constexpr size_t kAtomicPerTask = 500;
constexpr size_t kTasksPerRequester = 2;
constexpr int kSetupEngines = 7;

slade::EngineOptions BatchOptions() {
  slade::EngineOptions options;
  options.num_threads = 4;
  options.sharing = slade::BatchSharing::kPooled;
  return options;
}

struct Answer {
  double total_cost = 0.0;
  std::vector<double> slice_costs;
  bool operator==(const Answer& o) const {
    return total_cost == o.total_cost && slice_costs == o.slice_costs;
  }
};

Answer Summarize(const slade::BatchReport& report,
                 const std::vector<slade::RequesterPlan>& slices) {
  Answer answer;
  answer.total_cost = report.total_cost;
  for (const slade::RequesterPlan& slice : slices) {
    answer.slice_costs.push_back(slice.cost);
  }
  return answer;
}

struct Reps {
  std::vector<double> rep_ms, solve_ms, split_ms, gap_ms;
  std::vector<double> end_s;  ///< completion, seconds from the first rep
  double shards = 0.0;
  uint64_t wrong = 0;  ///< repetitions whose answer differed
};

/// Repeats SolveBatch + SplitBySpans for `seconds`; every answer must
/// equal `reference`. With a recorder, each call gets a span.
Reps Repeat(slade::DecompositionEngine* engine,
            const slade::BatchWorkload& batch,
            const std::vector<slade::RequesterSpan>& spans,
            const Answer& reference, double seconds,
            SpanRecorder* recorder) {
  Reps reps;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  Clock::time_point previous_end = start;
  for (uint64_t rep = 0; Clock::now() < stop; ++rep) {
    const auto t0 = Clock::now();
    auto report = engine->SolveBatch(batch.tasks, batch.profile);
    const auto t1 = Clock::now();
    if (!report.ok()) throw Fatal(report.status().ToString());
    auto slices =
        slade::PlanSplitter::SplitBySpans(*report, batch.profile, spans);
    const auto t2 = Clock::now();
    if (!slices.ok()) throw Fatal(slices.status().ToString());
    if (recorder != nullptr) {
      recorder->Record(0, {"solve", "rep", rep, t0, t1});
      recorder->Record(0, {"split", "rep", rep, t1, t2});
      recorder->Record(0, {"rep", "", rep, t0, t2});
    }
    reps.rep_ms.push_back(Millis(t2 - t0));
    reps.solve_ms.push_back(Millis(t1 - t0));
    reps.split_ms.push_back(Millis(t2 - t1));
    reps.gap_ms.push_back(Millis(t0 - previous_end));
    reps.end_s.push_back(Seconds(t2 - start));
    reps.shards += static_cast<double>(report->shards.size());
    if (!(Summarize(*report, *slices) == reference)) reps.wrong += 1;
    previous_end = t2;
  }
  return reps;
}

/// `work` per repetition over the time the repetitions took, median over
/// 2 s windows of completions. Dividing by repetition time rather than by
/// the window keeps the rate from being quantized to whole repetitions per
/// window, and leaves out the driver's own answer checks. The median, not
/// the calmer upper quartile the serving rates take: repetitions alternate
/// between a fast and a slow speed in stretches of seconds, and over two
/// 10-run sets the windows' median spread 14% and 12% across runs, their
/// upper quartile 18% and 18%.
double RepetitionRate(const Reps& reps, double work) {
  constexpr double kWindow = 2.0;
  std::map<size_t, std::pair<double, double>> windows;  // count, seconds
  for (size_t i = 0; i < reps.rep_ms.size(); ++i) {
    auto& [count, seconds] =
        windows[static_cast<size_t>(reps.end_s[i] / kWindow)];
    count += 1.0;
    seconds += reps.rep_ms[i] / 1e3;
  }
  std::vector<double> rates;
  for (const auto& [index, window] : windows) {
    rates.push_back(window.first * work / window.second);
  }
  return Quantile(std::move(rates), 0.5);
}

}  // namespace

RunResult RunBatchPooled(const RunConfig& config) {
  RunResult result;
  slade::ThresholdSpec spec;
  spec.family = slade::ThresholdFamily::kNormal;
  auto made = slade::MakeBatchWorkload(slade::DatasetKind::kSmic, kTasks,
                                       kAtomicPerTask, spec, 20, config.seed);
  if (!made.ok()) throw Fatal(made.status().ToString());
  const slade::BatchWorkload batch = std::move(*made);
  std::vector<slade::RequesterSpan> spans;
  for (size_t r = 0; r * kTasksPerRequester < kTasks; ++r) {
    spans.push_back({"r" + std::to_string(r), r * kTasksPerRequester,
                     kTasksPerRequester});
  }
  const double atomic = static_cast<double>(kTasks * kAtomicPerTask);

  // Set-up: engine construction plus the first (cold) solve. The cold
  // answers are the reference every warm repetition must reproduce.
  // Memory is the peak of a cold solve and split, each from an empty arena
  // pool: the warm repetitions' peak depends on how thread interleaving
  // fills that process-wide pool, and lands in one of two steady states
  // from run to run.
  std::vector<double> setup, peak_rss;
  Answer cold;
  for (int r = 0; r < kSetupEngines; ++r) {
    ResetPeakRss();
    const auto start = Clock::now();
    slade::DecompositionEngine engine(BatchOptions());
    auto report = engine.SolveBatch(batch.tasks, batch.profile);
    setup.push_back(Seconds(Clock::now() - start));
    if (!report.ok()) throw Fatal(report.status().ToString());
    auto slices =
        slade::PlanSplitter::SplitBySpans(*report, batch.profile, spans);
    if (!slices.ok()) throw Fatal(slices.status().ToString());
    peak_rss.push_back(PeakRssMb());
    if (r == 0) {
      cold = Summarize(*report, *slices);
    } else if (!(Summarize(*report, *slices) == cold)) {
      result.Problem("fresh engines disagree on the batch's answer");
    }
  }

  slade::DecompositionEngine engine(BatchOptions());
  {
    // Warm-up repetition (untimed): fills the cache and the arena pool,
    // and its plan must be feasible.
    auto report = engine.SolveBatch(batch.tasks, batch.profile);
    if (!report.ok()) throw Fatal(report.status().ToString());
    auto merged = slade::ConcatenateTasks(batch.tasks);
    if (!merged.ok()) throw Fatal(merged.status().ToString());
    auto validation =
        slade::ValidatePlan(report->plan, *merged, batch.profile);
    if (!validation.ok() || !validation->feasible) {
      result.Problem("batch plan is not feasible");
    }
    auto slices =
        slade::PlanSplitter::SplitBySpans(*report, batch.profile, spans);
    if (!slices.ok()) throw Fatal(slices.status().ToString());
    if (!(Summarize(*report, *slices) == cold)) {
      result.Problem("warm answer differs from a fresh engine's");
    }
  }
  const Reps reps =
      Repeat(&engine, batch, spans, cold, config.seconds, nullptr);
  result.attempted += reps.rep_ms.size() * spans.size();
  result.failed += reps.wrong * spans.size();
  const double lag_p99 = Quantile(reps.gap_ms, 0.99);
  result.Note("batch-pooled: " + std::to_string(reps.rep_ms.size()) +
              " repetitions, solve p50 " +
              std::to_string(Quantile(reps.solve_ms, 0.5)) + " ms, split p50 " +
              std::to_string(Quantile(reps.split_ms, 0.5)) +
              " ms; after them the process peak is " +
              std::to_string(PeakRssMb()) + " MB with " +
              std::to_string(static_cast<double>(
                                 slade::PlanArenaPoolStats().pooled_bytes) /
                             (1 << 20)) +
              " MB idle in the arena pool");

  if (!config.trace) {
    result.Add("setup_s", Quantile(setup, 0.5), "s");
    result.Add("latency_p50_ms", Quantile(reps.rep_ms, 0.5), "ms");
    result.Add("latency_p99_ms", Quantile(reps.rep_ms, 0.99), "ms");
    result.Add("goodput_rps",
               RepetitionRate(reps, static_cast<double>(spans.size())), "1/s");
    result.Add("atomic_tasks_per_s", RepetitionRate(reps, atomic), "1/s");
    result.Add("cost_per_atomic", cold.total_cost / atomic, "cost/atomic");
    result.Add("peak_rss_mb", Quantile(peak_rss, 0.5), "MB");
    return result;
  }

  // ---- traced run: the same repetitions with a span around each call.
  SpanRecorder recorder(1 + 4, 6 * spans.size());
  const slade::PlanArenaPoolCounters pool_before = slade::PlanArenaPoolStats();
  const Reps traced =
      Repeat(&engine, batch, spans, cold, config.seconds / 2, &recorder);
  const slade::PlanArenaPoolCounters pool_after = slade::PlanArenaPoolStats();
  result.attempted += traced.rep_ms.size() * spans.size();
  result.failed += traced.wrong * spans.size();
  const double pool_hits =
      static_cast<double>(pool_after.reuse_hits - pool_before.reuse_hits);
  const double pool_total =
      pool_hits +
      static_cast<double>(pool_after.reuse_misses - pool_before.reuse_misses);
  const double traced_count = static_cast<double>(traced.rep_ms.size());
  result.Add("decomposition.solve_ms_p50",
             Quantile(recorder.DurationsUs("solve"), 0.5) / 1e3, "ms");
  result.Add("decomposition.shards_per_solve", traced.shards / traced_count,
             "count");
  result.Add("plan_splitter.split_ms_p50",
             Quantile(recorder.DurationsUs("split"), 0.5) / 1e3, "ms");
  result.Add("plan_arena.peak_mb",
             static_cast<double>(engine.plan_arena_counters().peak_bytes) /
                 (1 << 20),
             "MB");
  result.Add("plan_arena.pool_hit_rate",
             pool_total > 0.0 ? pool_hits / pool_total : 0.0, "frac");
  double solve_seconds = 0.0;
  for (double ms : reps.solve_ms) solve_seconds += ms / 1e3;
  for (double ms : traced.solve_ms) solve_seconds += ms / 1e3;
  AddCacheLayerMetrics(engine.cache().stats(), solve_seconds, &result);

  // The batch's requesters through the serving path: each requester's
  // tasks as one submission to a pooled streaming engine, on 4 handler
  // threads. These are the server.* and streaming.* numbers of serving
  // this batch; its own path above does not pass through those layers.
  std::vector<std::string> requests;
  std::vector<Submission> submissions;
  for (const slade::RequesterSpan& span : spans) {
    Submission s;
    s.requester = span.requester_id;
    for (size_t t = 0; t < span.num_tasks; ++t) {
      s.tasks.push_back(batch.tasks[span.first_task + t]);
    }
    requests.push_back(RenderSubmitRequest(s, ""));
    submissions.push_back(std::move(s));
  }
  slade::StreamingOptions serving;
  serving.sharing = slade::BatchSharing::kPooled;
  serving.num_threads = 4;
  serving.max_delay_seconds = 0.002;
  {
    slade::StreamingEngine streaming(batch.profile, serving);
    TracedHandler handler(&streaming, &recorder);
    const slade::StreamingStats before = streaming.stats();
    const auto start = Clock::now();
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failed{0};
    RunOnThreads(4, [&](size_t c) {
      for (size_t k = next.fetch_add(1); k < requests.size();
           k = next.fetch_add(1)) {
        if (handler.Handle(1 + c, k, requests[k]).status != 200) failed += 1;
      }
    });
    result.attempted += requests.size();
    result.failed += failed.load();
    AddStreamingLayerMetrics(before, streaming.stats(),
                             Seconds(Clock::now() - start), &result);
  }
  result.Add("server.parse_us_p50",
             Quantile(recorder.DurationsUs("parse"), 0.5), "us");
  result.Add("server.decode_us_p50",
             Quantile(recorder.DurationsUs("decode"), 0.5), "us");
  result.Add("server.encode_us_p50",
             Quantile(recorder.DurationsUs("encode"), 0.5), "us");
  const std::vector<double> submit_us = recorder.DurationsUs("submit");
  const std::vector<double> wait_us = recorder.DurationsUs("wait");
  result.Add("streaming.submit_us_p50", Quantile(submit_us, 0.5), "us");
  result.Add("streaming.submit_us_p99", Quantile(submit_us, 0.99), "us");
  result.Add("streaming.wait_ms_p50", Quantile(wait_us, 0.5) / 1e3, "ms");
  result.Add("streaming.wait_ms_p99", Quantile(wait_us, 0.99) / 1e3, "ms");
  result.Add("streaming.tenant_share_err", 0.0, "frac");
  AddWireProbeMetrics(
      [&] {
        return std::make_unique<slade::StreamingEngine>(batch.profile,
                                                        serving);
      },
      std::vector<std::string>(requests.begin(), requests.begin() + 200),
      &result);
  result.Add("registry.route_us_p50", RouteProbeUsP50(submissions), "us");
  result.Add("registry.platform_b_share", 0.0, "frac");
  result.Add("wal.fsyncs_per_submission", 0.0, "count");
  result.Add("wal.records_per_fsync", 0.0, "count");
  result.Add("wal.bytes_per_submission", 0.0, "bytes");
  result.Add("journal.duplicate_hits", 0.0, "count");
  result.Add("journal.recovery_records", 0.0, "count");
  result.Add("loadgen.lag_p99_ms", lag_p99, "ms");
  result.Add("loadgen.requests", static_cast<double>(reps.rep_ms.size()),
             "count");
  result.Note("batch-pooled: unattributed residual per repetition p50 " +
              std::to_string(Quantile(recorder.SelfTimesUs("rep"), 0.5)) +
              " us; tracing overhead on repetition p50 " +
              std::to_string(Quantile(traced.rep_ms, 0.5) -
                             Quantile(reps.rep_ms, 0.5)) +
              " ms");
  recorder.WriteJson(config.out_dir + "/trace-batch-pooled.json",
                     "batch-pooled", config.seed);
  return result;
}

}  // namespace slade_e2e
