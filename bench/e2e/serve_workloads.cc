// serve-plain and serve-durable: `slade_cli serve` driven over loopback
// HTTP, then (traced runs) the same tape replayed in process.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "binmodel/profile_model.h"
#include "durability/journal.h"
#include "e2e.h"
#include "io/model_io.h"

namespace slade_e2e {

namespace fs = std::filesystem;

namespace {

constexpr size_t kConnections = 4;
/// Share of --seconds spent in the open-loop phase; the closed-loop
/// capacity phase gets the rest.
constexpr double kOpenShare = 0.7;
/// serve-durable: every tenth request re-sends the submission id (and
/// body) of the request kDupDistance slots earlier, long since answered.
constexpr uint64_t kDupEvery = 10;
constexpr uint64_t kDupDistance = 999;
/// Acknowledged ids re-sent right after crash recovery.
constexpr size_t kRecoveryResends = 1000;

struct ServeSpec {
  std::string name;
  bool durable = false;
  double rate = 0.0;     ///< open-loop requests per second
  int setup_starts = 0;  ///< cold starts (plain) or recoveries (durable)
};

class ServeTape {
 public:
  ServeTape(const RunConfig& config, bool durable)
      : seed_(config.seed), durable_(durable) {}

  bool IsDuplicate(uint64_t k) const {
    return durable_ && k >= kDupDistance && k % kDupEvery == kDupEvery - 1;
  }
  /// The tape slot whose id and body request `k` sends.
  uint64_t Origin(uint64_t k) const {
    return IsDuplicate(k) ? k - kDupDistance : k;
  }
  Submission Make(uint64_t stream, uint64_t k) const {
    return MakeSubmission(durable_ ? Mix::kServeDurable : Mix::kServe, seed_,
                          stream, k);
  }
  std::string Request(uint64_t stream, uint64_t k) const {
    const uint64_t origin = Origin(k);
    return RenderSubmitRequest(Make(stream, origin),
                               durable_ ? Id(stream, origin) : "");
  }

 private:
  std::string Id(uint64_t stream, uint64_t k) const {
    return "s" + std::to_string(seed_) + "-" + std::to_string(stream) + "-" +
           std::to_string(k);
  }

  const uint64_t seed_;
  const bool durable_;
};

/// Reference costs per serving platform ("" = the single profile).
using OracleCosts = std::map<std::string, std::vector<double>>;

OracleCosts ReferenceCosts(const ServeTape& tape, uint64_t stream,
                           size_t count,
                           const std::map<std::string, slade::BinProfile>&
                               profiles) {
  Oracle oracle;
  OracleCosts out;
  for (const auto& [platform, profile] : profiles) {
    out[platform] = oracle.Costs(
        count, [&](size_t k) { return tape.Make(stream, k); }, profile);
  }
  return out;
}

struct PhaseTotals {
  double billed = 0.0;   ///< cost of first answers (duplicates excluded)
  double atomic = 0.0;   ///< atomic tasks of successful first answers
  uint64_t duplicates = 0;  ///< duplicate requests sent
  /// Per sample: 1 for a correct answer, and its solved atomic tasks
  /// (0 for duplicates, which are answered without a solve).
  std::vector<double> ok, solved_atomic;
};

/// Checks every answer of one phase: 2xx, the reference cost of the
/// platform it was served on (hinted requests on the hinted platform), or
/// -- for a re-sent id -- "duplicate":true at the original's cost.
PhaseTotals CheckPhase(const ServeTape& tape, uint64_t stream,
                       const std::vector<Sample>& samples,
                       const OracleCosts& oracle, RunResult* result) {
  PhaseTotals totals;
  totals.ok.assign(samples.size(), 0.0);
  totals.solved_atomic.assign(samples.size(), 0.0);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (s.index != i) throw Fatal("load phase skipped tape slots");
    result->attempted += 1;
    bool ok = s.reply.status >= 200 && s.reply.status < 300;
    if (tape.IsDuplicate(i)) {
      totals.duplicates += 1;
      const Reply& origin = samples[tape.Origin(i)].reply;
      ok = ok && s.reply.duplicate && origin.status == 200 &&
           s.reply.cost == origin.cost;
    } else if (ok) {
      const Submission submission = tape.Make(stream, i);
      const auto it = oracle.find(s.reply.platform);
      ok = !s.reply.duplicate && it != oracle.end() &&
           s.reply.cost == it->second[i] &&
           (submission.platform_hint.empty() ||
            submission.platform_hint == s.reply.platform);
      if (ok) {
        totals.billed += s.reply.cost;
        totals.atomic += static_cast<double>(submission.num_atomic());
        totals.solved_atomic[i] = static_cast<double>(submission.num_atomic());
      }
    }
    if (ok) {
      totals.ok[i] = 1.0;
    } else {
      result->failed += 1;
      if (result->failed <= 5) {
        result->Note("wrong answer: stream " + std::to_string(stream) +
                     " slot " + std::to_string(i) + " status " +
                     std::to_string(s.reply.status) + " cost " +
                     std::to_string(s.reply.cost));
      }
    }
  }
  return totals;
}

/// Latency of each sample (a failed request counts as over any limit) and
/// the time it was due, for windowed quantiles.
struct Timings {
  std::vector<double> due_s, latency_ms;
  double Windowed(double q) const {
    return WindowedQuantile(due_s, latency_ms, kLatencyWindow, q);
  }
};
Timings LatencyTimings(const std::vector<Sample>& samples) {
  Timings out;
  for (const Sample& s : samples) {
    out.due_s.push_back(s.due_s);
    out.latency_ms.push_back(s.reply.status >= 200 && s.reply.status < 300
                                 ? s.latency_ms
                                 : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> EndTimes(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.end_s);
  return out;
}

double Delta(const slade::JsonValue& before, const slade::JsonValue& after,
             const std::string& path) {
  return StatsNumber(after, path) - StatsNumber(before, path);
}

struct Paths {
  std::string log, wal, snapshot, profile_a, profile_b;
};

/// In-process replay of the open-loop tape through TracedHandler, on the
/// same schedule and with the same thread count as the HTTP phase.
std::vector<Sample> ReplayOpenLoop(TracedHandler* handler,
                                   const std::vector<double>& schedule,
                                   const std::vector<std::string>& requests) {
  std::vector<std::vector<Sample>> parts(kConnections);
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  RunOnThreads(kConnections, [&](size_t c) {
    for (size_t k = next.fetch_add(1); k < schedule.size();
         k = next.fetch_add(1)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(schedule[k]));
      std::this_thread::sleep_until(due);
      Sample sample;
      sample.index = k;
      sample.due_s = schedule[k];
      sample.reply = handler->Handle(c, k, requests[k]);
      sample.latency_ms = Millis(Clock::now() - due);
      parts[c].push_back(std::move(sample));
    }
  });
  return MergeSamples(std::move(parts));
}

/// The engine options `slade_cli serve` builds from the workload's flags.
slade::StreamingOptions ServeEngineOptions(bool durable) {
  slade::StreamingOptions options;
  options.max_delay_seconds = 0.0;
  options.num_threads = 2;
  if (durable) {
    options.fairness.enabled = true;
    options.fairness.weights = {{"t0", 4}, {"t1", 2}};
    options.routing = slade::RoutingPolicy::kStickyRequester;
  }
  return options;
}

RunResult RunServe(const RunConfig& config, const ServeSpec& spec) {
  RunResult result;
  const ServeTape tape(config, spec.durable);
  const std::string base = config.out_dir + "/" + spec.name;
  const Paths paths{base + ".log", base + "-wal", base + "-wal-snapshot",
                    base + "-a.csv", base + "-b.csv"};
  fs::remove(paths.log);
  fs::remove_all(paths.wal);
  fs::remove_all(paths.snapshot);
  SyncFilesystem(config.out_dir);

  // The durable server's fsyncs skip the disk (see no_fsync.cc).
  const std::string preload = spec.durable ? config.no_fsync_lib : "";
  if (spec.durable && preload.empty()) throw Fatal("--no-fsync-lib missing");
  std::map<std::string, slade::BinProfile> profiles;
  std::vector<std::string> argv = {
      config.cli_path, "serve", "--dataset", "jelly", "--max-cardinality",
      "10", "--max-delay-ms", "0", "--workers", "4", "--threads", "2",
      "--address", "127.0.0.1", "--port", "0"};
  if (spec.durable) {
    // The server loads these CSVs; the reference solves what it loaded.
    for (const auto& [name, path, profile] :
         {std::tuple{"a", paths.profile_a, Jelly10()},
          std::tuple{"b", paths.profile_b, Smic8()}}) {
      if (!slade::SaveBinProfileCsv(profile, path).ok()) {
        throw Fatal("cannot write " + path);
      }
      auto loaded = slade::LoadBinProfileCsv(path);
      if (!loaded.ok()) throw Fatal(loaded.status().ToString());
      profiles.emplace(name, std::move(*loaded));
    }
    argv.insert(argv.end(),
                {"--wal-dir", paths.wal, "--fairness", "--tenant-weights",
                 "t0=4,t1=2", "--profiles",
                 "a=" + paths.profile_a + ",b=" + paths.profile_b,
                 "--routing", "sticky"});
  } else {
    profiles.emplace("", Jelly10());
  }

  const double open_seconds = config.seconds * kOpenShare;
  const double closed_seconds = config.seconds - open_seconds;
  const std::vector<double> schedule =
      PoissonSchedule(config.seed, 1, spec.rate, open_seconds);
  std::vector<std::string> requests;
  requests.reserve(schedule.size());
  for (size_t k = 0; k < schedule.size(); ++k) {
    requests.push_back(tape.Request(1, k));
  }

  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  double seconds = 0.0;
  if (!spec.durable) {
    // Cold starts: spawn to the first 200 from /healthz. The last one
    // serves the run.
    for (int r = 0; r < spec.setup_starts; ++r) {
      if (server) server->Stop(SIGKILL);
      server = StartServer(argv, paths.log, preload, &seconds);
      setup.push_back(seconds);
    }
  } else {
    server = StartServer(argv, paths.log, preload, &seconds);
  }

  // Phase 1: open loop. Memory is read after it: the same tape means the
  // same work, while the closed loop's work depends on its speed.
  const slade::JsonValue stats_open = FetchStats(server->port());
  const std::vector<Sample> open =
      RunOpenLoop(server->port(), schedule, requests, kConnections);
  const slade::JsonValue stats_open_end = FetchStats(server->port());
  const double peak_rss = PeakRssMb(server->pid());

  std::vector<Sample> resends;
  slade::JsonValue stats_recovered;
  if (spec.durable) {
    // Crash, then recover from the same log several times: each restart
    // starts from a copy of the crashed log, so every recovery does the
    // same work. The last recovered server serves the rest of the run.
    server->Stop(SIGKILL);
    fs::copy(paths.wal, paths.snapshot, fs::copy_options::recursive);
    for (int r = 0; r < spec.setup_starts; ++r) {
      if (r > 0) {
        server->Stop(SIGKILL);
        fs::remove_all(paths.wal);
        fs::copy(paths.snapshot, paths.wal, fs::copy_options::recursive);
      }
      SyncFilesystem(config.out_dir);
      server = StartServer(argv, paths.log, preload, &seconds);
      setup.push_back(seconds);
    }
    stats_recovered = FetchStats(server->port());
    // Acknowledged ids must come back as duplicates at their original
    // cost: nothing is re-solved or re-billed after the crash.
    std::vector<uint64_t> acked;
    for (const Sample& s : open) {
      if (s.reply.status == 200 && !tape.IsDuplicate(s.index)) {
        acked.push_back(s.index);
      }
    }
    const size_t step = std::max<size_t>(1, acked.size() / kRecoveryResends);
    std::vector<std::string> resend_requests;
    std::vector<uint64_t> resend_slots;
    for (size_t i = 0; i < acked.size() && resend_slots.size() <
                                               kRecoveryResends;
         i += step) {
      resend_slots.push_back(acked[i]);
      resend_requests.push_back(requests[acked[i]]);
    }
    resends = RunOpenLoop(server->port(),
                          std::vector<double>(resend_requests.size(), 0.0),
                          resend_requests, kConnections);
    for (size_t i = 0; i < resends.size(); ++i) {
      const Reply& original = open[resend_slots[i]].reply;
      result.attempted += 1;
      if (resends[i].reply.status != 200 || !resends[i].reply.duplicate ||
          resends[i].reply.cost != original.cost) {
        result.failed += 1;
      }
    }
  }

  // Phase 2: closed loop on a fresh tape.
  const std::vector<Sample> closed = RunClosedLoop(
      server->port(), closed_seconds, kConnections,
      [&](uint64_t k) { return tape.Request(2, k); });
  const slade::JsonValue stats_end = FetchStats(server->port());
  server->Stop(SIGTERM);

  const PhaseTotals open_totals = CheckPhase(
      tape, 1, open, ReferenceCosts(tape, 1, open.size(), profiles), &result);
  const PhaseTotals closed_totals =
      CheckPhase(tape, 2, closed,
                 ReferenceCosts(tape, 2, closed.size(), profiles), &result);

  if (spec.durable) {
    const double hits_open =
        Delta(stats_open, stats_open_end, "engine.duplicate_hits");
    const double hits_after =
        Delta(stats_recovered, stats_end, "engine.duplicate_hits");
    const double sent_after =
        static_cast<double>(resends.size() + closed_totals.duplicates);
    if (hits_open != static_cast<double>(open_totals.duplicates) ||
        hits_after != sent_after) {
      result.Problem("journal duplicate hits " + std::to_string(hits_open) +
                     "+" + std::to_string(hits_after) + " != duplicates sent " +
                     std::to_string(open_totals.duplicates) + "+" +
                     std::to_string(sent_after));
    }
  }
  const double lag_p99 = LagP99Ms(open);
  if (lag_p99 > 1.0) result.phase_invalid = true;
  const Timings latencies = LatencyTimings(open);
  result.Note(spec.name + ": open loop " + std::to_string(open.size()) +
              " requests at " + std::to_string(spec.rate) + "/s, closed loop " +
              std::to_string(closed.size()) + " requests, lag p99 " +
              std::to_string(lag_p99) + " ms, whole-phase p99 " +
              std::to_string(Quantile(latencies.latency_ms, 0.99)) +
              " ms, tail.p999_ms " +
              std::to_string(Quantile(latencies.latency_ms, 0.999)));

  if (!config.trace) {
    const std::vector<double> closed_ends = EndTimes(closed);
    result.Add("setup_s", Quantile(setup, 0.5), "s");
    result.Add("latency_p50_ms", latencies.Windowed(0.5), "ms");
    result.Add("latency_p99_ms", latencies.Windowed(0.99), "ms");
    result.Add("goodput_rps",
               WindowedRate(closed_ends, closed_totals.ok, 0.5,
                            closed_seconds),
               "1/s");
    result.Add("atomic_tasks_per_s",
               WindowedRate(closed_ends, closed_totals.solved_atomic, 0.5,
                            closed_seconds),
               "1/s");
    result.Add("cost_per_atomic", open_totals.billed / open_totals.atomic,
               "cost/atomic");
    result.Add("peak_rss_mb", peak_rss, "MB");
    return result;
  }

  // ---- traced run: the open-loop tape again, in process.
  const slade::BinProfile jelly = Jelly10();
  slade::StreamingOptions options = ServeEngineOptions(spec.durable);
  std::unique_ptr<slade::ProfileRegistry> registry;
  std::unique_ptr<slade::SubmissionJournal> journal;
  if (spec.durable) {
    registry = std::make_unique<slade::ProfileRegistry>();
    for (const auto& [name, profile] : profiles) {
      if (!registry->Register(name, profile).ok()) throw Fatal("register");
    }
    options.registry = registry.get();
    fs::remove_all(paths.wal);
    slade::JournalOptions journal_options;
    journal_options.wal.dir = paths.wal;
    auto opened = slade::SubmissionJournal::Open(journal_options);
    if (!opened.ok()) throw Fatal(opened.status().ToString());
    journal = std::move(opened->journal);
    options.durability = journal.get();
  }
  // Six spans per request; twice an even share, for uneven threads.
  SpanRecorder recorder(kConnections, 12 * schedule.size() / kConnections);
  std::vector<Sample> replay;
  {
    slade::StreamingEngine engine(jelly, options);
    TracedHandler handler(&engine, &recorder);
    const slade::StreamingStats before = engine.stats();
    const auto start = Clock::now();
    replay = ReplayOpenLoop(&handler, schedule, requests);
    const double replay_wall = Seconds(Clock::now() - start);
    const slade::StreamingStats after = engine.stats();
    AddStreamingLayerMetrics(before, after, replay_wall, &result);
    AddCacheLayerMetrics(engine.cache().stats(), after.solve_seconds,
                         &result);
    if (registry) {
      double routed = 0.0, routed_b = 0.0;
      for (const slade::PlatformStats& p : registry->stats()) {
        routed += static_cast<double>(p.routed_submissions);
        if (p.platform_id == "b") {
          routed_b = static_cast<double>(p.routed_submissions);
        }
      }
      result.Add("registry.platform_b_share", routed_b / routed, "frac");
    } else {
      result.Add("registry.platform_b_share", 0.0, "frac");
    }
  }
  CheckPhase(tape, 1, replay, ReferenceCosts(tape, 1, replay.size(), profiles),
             &result);
  std::vector<FlushMember> members;
  for (const Sample& s : replay) {
    if (s.reply.status == 200 && !s.reply.duplicate) {
      members.push_back({s.reply.flush_id, s.reply.platform, s.index});
    }
  }

  const Timings replay_latencies = LatencyTimings(replay);
  result.Add("server.parse_us_p50",
             Quantile(recorder.DurationsUs("parse"), 0.5), "us");
  result.Add("server.decode_us_p50",
             Quantile(recorder.DurationsUs("decode"), 0.5), "us");
  result.Add("server.encode_us_p50",
             Quantile(recorder.DurationsUs("encode"), 0.5), "us");
  result.Add("server.wire_us_p50",
             (latencies.Windowed(0.5) - replay_latencies.Windowed(0.5)) * 1e3,
             "us");
  const double requests_seen =
      Delta(stats_open, stats_open_end, "server.requests");
  result.Add("server.bytes_in_per_req",
             Delta(stats_open, stats_open_end, "server.bytes_in") /
                 requests_seen,
             "bytes");
  result.Add("server.bytes_out_per_req",
             Delta(stats_open, stats_open_end, "server.bytes_out") /
                 requests_seen,
             "bytes");
  const std::vector<double> submit_us = recorder.DurationsUs("submit");
  const std::vector<double> wait_us = recorder.DurationsUs("wait");
  result.Add("streaming.submit_us_p50", Quantile(submit_us, 0.5), "us");
  result.Add("streaming.submit_us_p99", Quantile(submit_us, 0.99), "us");
  result.Add("streaming.wait_ms_p50", Quantile(wait_us, 0.5) / 1e3, "ms");
  result.Add("streaming.wait_ms_p99", Quantile(wait_us, 0.99) / 1e3, "ms");
  result.Add("streaming.tenant_share_err",
             spec.durable
                 ? TenantShareError(jelly, ServeEngineOptions(true),
                                    {"t0", "t1", "t2", "t3", "t4", "t5", "t6",
                                     "t7"})
                 : 0.0,
             "frac");
  slade::EngineOptions reexec;
  reexec.num_threads = options.num_threads;
  reexec.sharing = options.sharing;
  AddFlushReexecMetrics(
      std::move(members), [&](uint64_t k) { return tape.Make(1, k); }, reexec,
      profiles, &recorder, &result);
  std::vector<Submission> route_sample;
  for (uint64_t k = 0; k < std::min<size_t>(schedule.size(), 5000); ++k) {
    route_sample.push_back(tape.Make(1, tape.Origin(k)));
  }
  result.Add("registry.route_us_p50", RouteProbeUsP50(route_sample), "us");
  const double admitted =
      Delta(stats_open, stats_open_end, "engine.submissions");
  const double fsyncs =
      Delta(stats_open, stats_open_end, "durability.fsyncs");
  result.Add("wal.fsyncs_per_submission",
             spec.durable ? fsyncs / admitted : 0.0, "count");
  result.Add("wal.records_per_fsync",
             spec.durable
                 ? Delta(stats_open, stats_open_end,
                         "durability.records_appended") /
                       fsyncs
                 : 0.0,
             "count");
  result.Add("wal.bytes_per_submission",
             spec.durable ? Delta(stats_open, stats_open_end,
                                  "durability.bytes_appended") /
                                admitted
                          : 0.0,
             "bytes");
  result.Add("journal.duplicate_hits",
             Delta(stats_open, stats_open_end, "engine.duplicate_hits"),
             "count");
  result.Add("journal.recovery_records",
             spec.durable ? StatsNumber(stats_recovered,
                                        "durability.recovery.records_replayed")
                          : 0.0,
             "count");
  result.Add("loadgen.lag_p99_ms", lag_p99, "ms");
  result.Add("loadgen.requests", static_cast<double>(open.size()), "count");
  result.Note(spec.name + ": unattributed residual per request p50 " +
              std::to_string(Quantile(recorder.SelfTimesUs("request"), 0.5)) +
              " us; in-process replay p50 " +
              std::to_string(replay_latencies.Windowed(0.5)) +
              " ms vs HTTP " + std::to_string(latencies.Windowed(0.5)) +
              " ms");
  recorder.WriteJson(config.out_dir + "/trace-" + spec.name + ".json",
                     spec.name, config.seed);
  return result;
}

}  // namespace

std::string ServeRequest(bool durable, uint64_t seed, uint64_t k) {
  RunConfig config;
  config.seed = seed;
  return ServeTape(config, durable).Request(1, k);
}

RunResult RunServePlain(const RunConfig& config) {
  return RunServe(config, {"serve-plain", false, 4000.0, 21});
}

RunResult RunServeDurable(const RunConfig& config) {
  return RunServe(config, {"serve-durable", true, 1500.0, 9});
}

}  // namespace slade_e2e
