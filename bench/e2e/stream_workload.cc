// stream-fair: an in-process StreamingEngine under weighted-fair
// admission, fed on a Poisson schedule and then unpaced.

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>

#include "e2e.h"

namespace slade_e2e {

namespace {

constexpr double kRate = 40000.0;  ///< paced submissions per second
constexpr double kOpenShare = 0.7;
constexpr int kSetupEngines = 9;
constexpr size_t kSetupBurst = 10000;
/// Unpaced phase: submissions in flight at most (bounds driver memory;
/// ten flushes deep, so the solver never idles).
constexpr int64_t kWindow = 1024;

slade::StreamingOptions StreamOptions() {
  slade::StreamingOptions options;
  options.sharing = slade::BatchSharing::kIsolated;
  options.max_delay_seconds = 0.002;
  options.num_threads = 2;
  options.fairness.enabled = true;
  for (int t = 0; t < 8; ++t) {
    options.fairness.weights["t" + std::to_string(t)] = 4;
  }
  return options;
}

Submission Make(uint64_t seed, uint64_t stream, uint64_t k) {
  return MakeSubmission(Mix::kStream, seed, stream, k);
}

struct StreamSample {
  uint64_t index = 0;
  bool ok = false;
  double cost = 0.0;
  uint64_t flush_id = 0;
  double latency_ms = 0.0;  ///< scheduled submit to first seen ready
  double atomic = 0.0;
  Clock::time_point due, ready;
};

struct PhaseOutput {
  std::vector<StreamSample> samples;  ///< sorted by index
  std::vector<double> lag_ms;
  Clock::time_point start, stop;
};

/// One phase on `engine`. With a schedule, one thread submits each
/// submission at its due time; without, it keeps kWindow in flight until
/// `seconds` pass. A second thread scans the outstanding futures and
/// timestamps each the first time it reports ready. With `handler` the
/// submit side runs parse/decode/submit on the pre-rendered `requests`
/// and the ready side wait/encode, each under a span.
PhaseOutput RunPhase(slade::StreamingEngine* engine, uint64_t seed,
                     uint64_t stream, const std::vector<double>* schedule,
                     double seconds, TracedHandler* handler,
                     const std::vector<std::string>* requests,
                     SpanRecorder* recorder) {
  struct Pending {
    uint64_t index;
    Clock::time_point due, submitted;
    double atomic;
    std::future<slade::Result<slade::RequesterPlan>> future;
  };
  std::mutex handoff_mutex;
  std::vector<Pending> handoff;
  std::atomic<bool> submitting{true};
  std::atomic<int64_t> in_flight{0};
  PhaseOutput out;
  if (schedule != nullptr) {
    // Sized up front: regrowing mid-phase would stall the ready-side
    // thread while it copies, and delay every timestamp behind it.
    out.samples.reserve(schedule->size());
    out.lag_ms.reserve(schedule->size());
  }
  out.start = Clock::now() + std::chrono::milliseconds(10);
  out.stop = out.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));

  std::thread poller([&] {
    std::vector<Pending> outstanding;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        for (Pending& p : handoff) outstanding.push_back(std::move(p));
        handoff.clear();
      }
      if (outstanding.empty() && !submitting.load()) {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        if (handoff.empty()) break;
        continue;
      }
      bool progressed = false;
      for (size_t i = 0; i < outstanding.size();) {
        Pending& p = outstanding[i];
        if (p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        StreamSample sample;
        sample.ready = Clock::now();
        sample.due = p.due;
        sample.index = p.index;
        sample.atomic = p.atomic;
        sample.latency_ms = Millis(sample.ready - p.due);
        slade::Result<slade::RequesterPlan> plan = p.future.get();
        if (handler != nullptr) {
          recorder->Record(1, {"wait", "request", p.index, p.submitted,
                               sample.ready});
          Reply reply;
          handler->Encode(1, p.index, plan, &reply);
          recorder->Record(1, {"request", "", p.index, p.due, Clock::now()});
        }
        sample.ok = plan.ok();
        if (plan.ok()) {
          sample.cost = plan->cost;
          sample.flush_id = plan->flush_id;
        }
        out.samples.push_back(sample);
        in_flight.fetch_sub(1);
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
        progressed = true;
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  });
  {
    // Joins the poller when submitting ends, a throw included; the
    // poller finishes once every submitted future has resolved.
    struct StopPoller {
      std::atomic<bool>* submitting;
      std::thread* poller;
      ~StopPoller() {
        submitting->store(false);
        poller->join();
      }
    } stop_poller{&submitting, &poller};

    const size_t count = schedule ? schedule->size()
                                   : std::numeric_limits<size_t>::max();
    if (schedule == nullptr) std::this_thread::sleep_until(out.start);
    for (uint64_t k = 0; k < count; ++k) {
      // Traced, the request bytes are the tape; regenerating the submission
      // too would cost the submitting thread a third of its budget.
      Submission submission;
      if (handler == nullptr) submission = Make(seed, stream, k);
      Clock::time_point due;
      if (schedule != nullptr) {
        due = out.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>((*schedule)[k]));
        // Arrivals are ~25 us apart, below the sleep granularity: the
        // thread sleeps only when ahead and submits everything already due
        // on waking (latency counts from each due time, so nothing is lost).
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
          out.lag_ms.push_back(Millis(Clock::now() - due));
        }
      } else {
        while (in_flight.load() >= kWindow) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        due = Clock::now();
        if (due >= out.stop) break;
      }
      Pending pending{k, due, due, 0.0, {}};
      if (handler != nullptr) {
        TracedHandler::Decoded decoded;
        if (!handler->ParseAndDecode(0, k, (*requests)[k], &decoded)) {
          throw Fatal("stream replay: undecodable request");
        }
        for (const slade::CrowdsourcingTask& t : decoded.tasks) {
          pending.atomic += static_cast<double>(t.size());
        }
        pending.future = handler->Submit(0, k, std::move(decoded));
      } else {
        pending.atomic = static_cast<double>(submission.num_atomic());
        pending.future = engine->Submit(std::move(submission.requester),
                                        std::move(submission.tasks));
      }
      pending.submitted = Clock::now();
      in_flight.fetch_add(1);
      std::lock_guard<std::mutex> lock(handoff_mutex);
      handoff.push_back(std::move(pending));
    }
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const StreamSample& a, const StreamSample& b) {
              return a.index < b.index;
            });
  return out;
}

/// Checks every answer of a phase against the isolated reference solve.
void CheckPhase(uint64_t seed, uint64_t stream, const PhaseOutput& phase,
                RunResult* result) {
  Oracle oracle;
  const std::vector<double> expected = oracle.Costs(
      phase.samples.size(), [&](size_t k) { return Make(seed, stream, k); },
      Jelly10());
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const StreamSample& s = phase.samples[i];
    if (s.index != i) throw Fatal("stream phase skipped tape slots");
    result->attempted += 1;
    if (!s.ok || s.cost != expected[i]) {
      result->failed += 1;
      if (result->failed <= 5) {
        result->Note("wrong answer: stream " + std::to_string(stream) +
                     " slot " + std::to_string(i));
      }
    }
  }
}

/// Per-sample series of a phase: latency (a failure counts as over any
/// limit) by due time, and completions with their atomic tasks by ready
/// time, all in seconds from the phase start.
struct Series {
  std::vector<double> due_s, latency_ms, ready_s, ok, atomic;
  double Latency(double q) const {
    return WindowedQuantile(due_s, latency_ms, kLatencyWindow, q);
  }
};
Series SeriesOf(const PhaseOutput& phase) {
  Series out;
  for (const StreamSample& s : phase.samples) {
    out.due_s.push_back(Seconds(s.due - phase.start));
    out.latency_ms.push_back(
        s.ok ? s.latency_ms : std::numeric_limits<double>::infinity());
    out.ready_s.push_back(Seconds(s.ready - phase.start));
    out.ok.push_back(s.ok ? 1.0 : 0.0);
    out.atomic.push_back(s.ok ? s.atomic : 0.0);
  }
  return out;
}

}  // namespace

RunResult RunStreamFair(const RunConfig& config) {
  RunResult result;
  const slade::BinProfile profile = Jelly10();
  const slade::StreamingOptions options = StreamOptions();

  // Set-up: a fresh engine until it has answered a burst of the tape (cold
  // OPQ builds included). Memory is the peak while it absorbs the burst,
  // each engine starting from an empty arena pool: over the long phases
  // the peak follows how thread interleaving fills that process-wide pool.
  std::vector<double> setup, peak_rss;
  std::vector<Submission> burst;
  for (uint64_t k = 0; k < kSetupBurst; ++k) {
    burst.push_back(Make(config.seed, 0, k));
  }
  const std::vector<double> burst_expected = Oracle().Costs(
      burst.size(), [&](size_t k) { return burst[k]; }, profile);
  for (int r = 0; r < kSetupEngines; ++r) {
    std::vector<Submission> copy = burst;
    std::vector<std::future<slade::Result<slade::RequesterPlan>>> futures;
    futures.reserve(copy.size());
    ResetPeakRss();
    const auto start = Clock::now();
    auto engine = std::make_unique<slade::StreamingEngine>(profile, options);
    for (Submission& s : copy) {
      futures.push_back(
          engine->Submit(std::move(s.requester), std::move(s.tasks)));
    }
    engine->Drain();
    setup.push_back(Seconds(Clock::now() - start));
    peak_rss.push_back(PeakRssMb());
    for (size_t k = 0; k < futures.size(); ++k) {
      const auto plan = futures[k].get();
      result.attempted += 1;
      if (!plan.ok() || plan->cost != burst_expected[k]) result.failed += 1;
    }
  }

  const double paced_seconds = config.seconds * kOpenShare;
  const double unpaced_seconds = config.seconds - paced_seconds;
  const std::vector<double> schedule =
      PoissonSchedule(config.seed, 1, kRate, paced_seconds);
  PhaseOutput paced, unpaced;
  {
    slade::StreamingEngine engine(profile, options);
    paced = RunPhase(&engine, config.seed, 1, &schedule, paced_seconds,
                     nullptr, nullptr, nullptr);
    unpaced = RunPhase(&engine, config.seed, 2, nullptr, unpaced_seconds,
                       nullptr, nullptr, nullptr);
  }
  CheckPhase(config.seed, 1, paced, &result);
  CheckPhase(config.seed, 2, unpaced, &result);

  double billed = 0.0, atomic = 0.0;
  for (const StreamSample& s : paced.samples) {
    billed += s.cost;
    atomic += s.atomic;
  }
  const Series latencies = SeriesOf(paced);
  const Series capacity = SeriesOf(unpaced);
  const double lag_p99 = Quantile(paced.lag_ms, 0.99);
  if (lag_p99 > 1.0) result.phase_invalid = true;
  result.Note("stream-fair: paced " + std::to_string(paced.samples.size()) +
              " submissions, unpaced " +
              std::to_string(unpaced.samples.size()) + ", lag p99 " +
              std::to_string(lag_p99) + " ms, whole-phase p99 " +
              std::to_string(Quantile(latencies.latency_ms, 0.99)) +
              " ms, tail.p999_ms " +
              std::to_string(Quantile(latencies.latency_ms, 0.999)));

  if (!config.trace) {
    result.Add("setup_s", Quantile(setup, 0.5), "s");
    result.Add("latency_p50_ms", latencies.Latency(0.5), "ms");
    result.Add("latency_p99_ms", latencies.Latency(0.99), "ms");
    result.Add("goodput_rps",
               WindowedRate(capacity.ready_s, capacity.ok, 0.5,
                            unpaced_seconds),
               "1/s");
    result.Add("atomic_tasks_per_s",
               WindowedRate(capacity.ready_s, capacity.atomic, 0.5,
                            unpaced_seconds),
               "1/s");
    result.Add("cost_per_atomic", billed / atomic, "cost/atomic");
    result.Add("peak_rss_mb", Quantile(peak_rss, 0.5), "MB");
    return result;
  }

  // ---- traced run: the paced tape again, with the handler's calls.
  // Three spans per request on each side, plus the flush re-execution.
  SpanRecorder recorder(2, 3 * schedule.size() + 8192);
  PhaseOutput traced;
  {
    std::vector<std::string> requests;
    requests.reserve(schedule.size());
    for (uint64_t k = 0; k < schedule.size(); ++k) {
      requests.push_back(RenderSubmitRequest(Make(config.seed, 1, k), ""));
    }
    slade::StreamingEngine engine(profile, options);
    TracedHandler handler(&engine, &recorder);
    const slade::StreamingStats before = engine.stats();
    traced = RunPhase(&engine, config.seed, 1, &schedule, paced_seconds,
                      &handler, &requests, &recorder);
    const slade::StreamingStats after = engine.stats();
    AddStreamingLayerMetrics(before, after,
                             Seconds(Clock::now() - traced.start), &result);
    AddCacheLayerMetrics(engine.cache().stats(), after.solve_seconds,
                         &result);
  }
  CheckPhase(config.seed, 1, traced, &result);
  std::vector<FlushMember> members;
  for (const StreamSample& s : traced.samples) {
    members.push_back({s.flush_id, "", s.index});
  }
  slade::EngineOptions reexec;
  reexec.num_threads = options.num_threads;
  reexec.sharing = options.sharing;
  AddFlushReexecMetrics(
      std::move(members),
      [&](uint64_t k) { return Make(config.seed, 1, k); }, reexec,
      {{"", profile}}, &recorder, &result);

  result.Add("server.parse_us_p50",
             Quantile(recorder.DurationsUs("parse"), 0.5), "us");
  result.Add("server.decode_us_p50",
             Quantile(recorder.DurationsUs("decode"), 0.5), "us");
  result.Add("server.encode_us_p50",
             Quantile(recorder.DurationsUs("encode"), 0.5), "us");
  std::vector<std::string> probe_requests;
  std::vector<Submission> route_sample;
  for (uint64_t k = 0; k < 2000; ++k) {
    probe_requests.push_back(RenderSubmitRequest(Make(config.seed, 3, k), ""));
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    route_sample.push_back(Make(config.seed, 1, k));
  }
  AddWireProbeMetrics(
      [&] {
        return std::make_unique<slade::StreamingEngine>(profile, options);
      },
      probe_requests, &result);
  const std::vector<double> submit_us = recorder.DurationsUs("submit");
  const std::vector<double> wait_us = recorder.DurationsUs("wait");
  result.Add("streaming.submit_us_p50", Quantile(submit_us, 0.5), "us");
  result.Add("streaming.submit_us_p99", Quantile(submit_us, 0.99), "us");
  result.Add("streaming.wait_ms_p50", Quantile(wait_us, 0.5) / 1e3, "ms");
  result.Add("streaming.wait_ms_p99", Quantile(wait_us, 0.99) / 1e3, "ms");
  std::vector<std::string> tenants;
  for (int t = 0; t < 16; ++t) tenants.push_back("t" + std::to_string(t));
  result.Add("streaming.tenant_share_err",
             TenantShareError(profile, options, tenants), "frac");
  result.Add("registry.route_us_p50", RouteProbeUsP50(route_sample), "us");
  result.Add("registry.platform_b_share", 0.0, "frac");
  result.Add("wal.fsyncs_per_submission", 0.0, "count");
  result.Add("wal.records_per_fsync", 0.0, "count");
  result.Add("wal.bytes_per_submission", 0.0, "bytes");
  result.Add("journal.duplicate_hits", 0.0, "count");
  result.Add("journal.recovery_records", 0.0, "count");
  result.Add("loadgen.lag_p99_ms", lag_p99, "ms");
  result.Add("loadgen.requests", static_cast<double>(paced.samples.size()),
             "count");
  result.Note("stream-fair: unattributed residual per request p50 " +
              std::to_string(Quantile(recorder.SelfTimesUs("request"), 0.5)) +
              " us; tracing overhead on latency p50 " +
              std::to_string(SeriesOf(traced).Latency(0.5) -
                             latencies.Latency(0.5)) +
              " ms");
  recorder.WriteJson(config.out_dir + "/trace-stream-fair.json",
                     "stream-fair", config.seed);
  return result;
}

}  // namespace slade_e2e
