// slade_cli: command-line front end for the SLADE decomposer.
//
//   slade_cli profile  --dataset jelly|smic --max-cardinality M --out F
//       Emit a bin profile CSV from the built-in dataset models.
//
//   slade_cli solve    --profile F (--thresholds F | --homogeneous N,T)
//                      --solver greedy|opq|opq-extended|baseline|fixed
//                      --out PLAN.csv [--seed S]
//       Decompose a task and write the plan; prints cost and bin counts.
//
//   slade_cli opq      --profile F --threshold T
//       Print the optimal priority queue (paper Table 3 format).
//
//   slade_cli validate --profile F --plan PLAN.csv
//                      (--thresholds F | --homogeneous N,T)
//       Re-check a plan's feasibility and cost.
//
//   slade_cli batch    --profile F --workload W.csv [--threads K]
//                      [--mode engine|sequential] [--sharing pooled|isolated]
//                      [--cache-max-bytes B] [--cache-max-entries N]
//                      [--cache-shards S] [--node-budget N] [--verbose]
//                      [--out PLAN.csv]
//       Decompose a whole batch of crowdsourcing tasks (CSV rows
//       `task,threshold`) with the sharded parallel engine, or the
//       sequential per-task reference loop for comparison. --node-budget
//       caps each Algorithm 2 enumeration (both modes); --verbose prints
//       the aggregate OPQ build cost (nodes visited/pruned, insertions,
//       build time) in engine mode.
//
//   slade_cli stream   --profile F --workload TIMED.csv [--threads K]
//                      [--max-pending-atomic N] [--max-pending-submissions N]
//                      [--max-delay-ms D] [--sharing isolated|pooled]
//                      [--speed X] [--loop N] [--id-prefix P]
//                      [--cache-max-bytes B] [--cache-max-entries N]
//                      [--cache-shards S] [--queue-max-atomic N]
//                      [--queue-max-bytes B]
//                      [--backpressure block|reject|shed-oldest]
//       Replay a timed workload (CSV rows `arrival_ms,requester,task,
//       threshold`) through the streaming admission engine and print
//       per-requester summaries. The tape is fed through the
//       FileReplaySource ingestion connector (the same one `serve
//       --replay` uses). --speed X replays arrivals X times faster than
//       recorded; 0 (the default) submits without waiting. --loop N
//       plays the tape N times end to end; --id-prefix P stamps
//       deterministic submission ids "P-<k>". The cache-* flags bound
//       the OPQ cache (LRU eviction) and the queue-* flags bound the
//       pending admission queue; --backpressure picks what happens to a
//       submission that does not fit (rejected and shed submissions are
//       reported, not fatal). All limits default to 0 = unbounded.
//
//   slade_cli serve    (--profile F | --dataset jelly|smic
//                       [--max-cardinality M])
//                      [--port P] [--address A] [--workers N]
//                      [--max-connections N] [--retry-after S]
//                      [--max-body-bytes B]
//                      [--fairness] [--fair-quantum N] [--default-weight W]
//                      [--tenant-weights a=2,b=1] [--tenant-max-atomic N]
//                      [--tenant-max-bytes B]
//                      [--wal-dir DIR] [--wal-segment-bytes B]
//                      [--replay TIMED.csv] [--replay-speed X]
//                      [--replay-loop N] [--replay-id-prefix P]
//                      [+ the stream admission/backpressure flags]
//       Serve the streaming engine over HTTP/1.1 (POST /v1/submit,
//       GET /v1/stats, GET /healthz) until SIGINT/SIGTERM, then shut
//       down gracefully: in-flight requests finish and every admitted
//       submission is answered. --port 0 binds an ephemeral port (the
//       bound port is printed). The fairness flags enable per-tenant
//       pending quotas and weighted-fair micro-batch scheduling;
//       specifying any of them implies --fairness.
//       --wal-dir turns on the durable submission journal: admissions
//       are logged before they are acknowledged, completed outcomes are
//       remembered for idempotent replay (clients may send a
//       `submission_id` with POST /v1/submit), and on startup the WAL
//       is replayed -- unfinished submissions are re-admitted and
//       re-solved, finished ones answer duplicates without re-billing.
//       Concurrent admissions share fsyncs without waiting for each
//       other: whatever is logged while one fsync is in flight goes out
//       together in the next. Shutdown writes a clean checkpoint so the
//       next start skips the replay scan. --replay feeds a timed
//       workload tape through the ingestion connector in the background
//       alongside HTTP traffic (--replay-speed 1 = recorded timing, 0 =
//       unpaced; --replay-loop 0 = loop forever; --replay-id-prefix
//       makes the feed idempotent across restarts on the same WAL).
//       --profiles name=FILE,... registers one crowdsourcing platform
//       per bin-profile CSV in a ProfileRegistry and routes each
//       submission to the cheapest platform that meets its thresholds
//       (--routing sticky pins requesters, explicit requires the HTTP
//       `platform` field; a non-empty `platform` field always wins).
//       /v1/submit echoes the serving (platform, epoch) and /v1/stats
//       grows a per-platform counters section. --recalibrate-every /
//       --drift-tolerance configure the online recalibration loop
//       (profiles promote as new epochs when folded outcomes drift;
//       see serve-loop, which actually feeds outcomes).
//
//   slade_cli serve-loop --dataset jelly|smic --workload TIMED.csv
//                      [--max-cardinality M] [--rounds R]
//                      [--inference majority|ds] [--dispatch-threads K]
//                      [--positive-rate P] [--seed S] [--platform-seed S]
//                      [--population N] [--skill-sigma S] [--spammers F]
//                      [--spammer-burst P,L,F] [--churn-period N]
//                      [--stragglers F,X] [--outage P,L] [--fault-seed S]
//                      [--max-redecompositions N] [--retry-cost-multiple X]
//                      [--threads K] [--max-pending-atomic N]
//                      [--max-pending-submissions N] [--max-delay-ms D]
//                      [--sharing isolated|pooled] [--cache-max-bytes B]
//                      [--cache-max-entries N] [--cache-shards S]
//                      [--queue-max-atomic N] [--queue-max-bytes B]
//                      [--backpressure block|reject|shed-oldest]
//       Run the closed loop end to end: the timed workload (arrival
//       times are ignored; each row is one requester submission) is
//       admitted through the streaming engine, plans execute on the
//       simulated marketplace (ground truth drawn per atomic task with
//       P(positive) = --positive-rate from --seed), answers feed truth
//       inference, and under-confident tasks are re-decomposed for up
//       to --rounds rounds. The dataset model drives both the bin
//       profile (built internally at --max-cardinality) and the
//       simulated workers, so planner and marketplace agree. The fault
//       flags inject spammer bursts (every P posts, L posts long, extra
//       fraction F), worker churn (new population every N posts),
//       stragglers (fraction F at X times the latency) and platform
//       outages (every P posts, L posts down). The registry flags
//       (--profiles/--routing/--recalibrate-every/--drift-tolerance,
//       see serve) run the loop multi-platform: registered profiles are
//       the planner's beliefs about the one simulated marketplace, each
//       round's ground-truth-scored answers fold back into the serving
//       platform, and a drifted profile promotes as a new epoch --
//       in-flight micro-batches keep solving under their admission
//       epoch, and only the promoted platform's OPQ cache entries are
//       evicted. Without --profiles the dataset profile serves as
//       platform "default".

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "binmodel/profile_model.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "durability/ingestion.h"
#include "durability/journal.h"
#include "engine/closed_loop_engine.h"
#include "engine/decomposition_engine.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "io/csv_reader.h"
#include "io/model_io.h"
#include "server/slade_server.h"
#include "solver/fixed_cardinality_solver.h"
#include "solver/opq_builder.h"
#include "solver/plan_validator.h"
#include "solver/solver.h"

namespace {

using namespace slade;

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  slade_cli profile  --dataset jelly|smic --max-cardinality M "
      "--out FILE\n"
      "  slade_cli solve    --profile FILE (--thresholds FILE | "
      "--homogeneous N,T)\n"
      "                     [--solver greedy|opq|opq-extended|baseline|"
      "fixed] [--out FILE] [--seed S]\n"
      "  slade_cli opq      --profile FILE --threshold T\n"
      "  slade_cli validate --profile FILE --plan FILE (--thresholds FILE"
      " | --homogeneous N,T)\n"
      "  slade_cli batch    --profile FILE --workload FILE [--threads K]\n"
      "                     [--mode engine|sequential] "
      "[--sharing pooled|isolated]\n"
      "                     [--cache-max-bytes B] [--cache-max-entries N]"
      " [--cache-shards S]\n"
      "                     [--node-budget N] [--verbose] [--out FILE]\n"
      "  slade_cli stream   --profile FILE --workload FILE [--threads K]\n"
      "                     [--max-pending-atomic N] "
      "[--max-pending-submissions N]\n"
      "                     [--max-delay-ms D] [--sharing isolated|pooled]"
      " [--speed X]\n"
      "                     [--loop N] [--id-prefix P]\n"
      "                     [--cache-max-bytes B] [--cache-max-entries N]"
      " [--cache-shards S]\n"
      "                     [--queue-max-atomic N] [--queue-max-bytes B]\n"
      "                     [--backpressure block|reject|shed-oldest]\n"
      "  slade_cli serve    (--profile FILE | --dataset jelly|smic "
      "[--max-cardinality M])\n"
      "                     [--port P] [--address A] [--workers N] "
      "[--max-connections N]\n"
      "                     [--retry-after S] [--max-body-bytes B] "
      "[--fairness]\n"
      "                     [--fair-quantum N] [--default-weight W] "
      "[--tenant-weights a=2,b=1]\n"
      "                     [--tenant-max-atomic N] [--tenant-max-bytes B]\n"
      "                     [--wal-dir DIR] [--wal-segment-bytes B]\n"
      "                     [--replay FILE] [--replay-speed X] "
      "[--replay-loop N]\n"
      "                     [--replay-id-prefix P]\n"
      "                     [--profiles name=FILE,...] "
      "[--routing cheapest|sticky|explicit]\n"
      "                     [--recalibrate-every N] [--drift-tolerance D]\n"
      "                     [+ the stream admission/backpressure flags]\n"
      "  slade_cli serve-loop --dataset jelly|smic --workload FILE\n"
      "                     [--max-cardinality M] [--rounds R] "
      "[--inference majority|ds]\n"
      "                     [--dispatch-threads K] [--positive-rate P] "
      "[--seed S]\n"
      "                     [--platform-seed S] [--population N] "
      "[--skill-sigma S]\n"
      "                     [--spammers F] [--spammer-burst P,L,F] "
      "[--churn-period N]\n"
      "                     [--stragglers F,X] [--outage P,L] "
      "[--fault-seed S]\n"
      "                     [--max-redecompositions N] "
      "[--retry-cost-multiple X]\n"
      "                     [--profiles name=FILE,...] "
      "[--routing cheapest|sticky|explicit]\n"
      "                     [--recalibrate-every N] [--drift-tolerance D]\n"
      "                     [+ the stream admission/backpressure flags]\n";
  return 2;
}

// Parses --key value pairs after the subcommand. A handful of boolean
// flags take no value and parse to "1".
std::optional<std::map<std::string, std::string>> ParseFlags(
    int argc, char** argv, int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    const char* key = argv[i];
    if (std::strncmp(key, "--", 2) != 0) return std::nullopt;
    if (std::strcmp(key, "--verbose") == 0 ||
        std::strcmp(key, "--fairness") == 0) {
      flags[key + 2] = "1";
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    flags[key + 2] = argv[++i];
  }
  return flags;
}

Result<CrowdsourcingTask> LoadTask(
    const std::map<std::string, std::string>& flags) {
  auto thresholds = flags.find("thresholds");
  auto homogeneous = flags.find("homogeneous");
  if ((thresholds != flags.end()) == (homogeneous != flags.end())) {
    return Status::InvalidArgument(
        "exactly one of --thresholds / --homogeneous is required");
  }
  if (thresholds != flags.end()) {
    return LoadThresholdsCsv(thresholds->second);
  }
  size_t n = 0;
  double t = 0.0;
  if (std::sscanf(homogeneous->second.c_str(), "%zu,%lf", &n, &t) != 2) {
    return Status::InvalidArgument(
        "--homogeneous expects N,T (e.g. 10000,0.9)");
  }
  return CrowdsourcingTask::Homogeneous(n, t);
}

/// Parses an optional `--sharing isolated|pooled` flag into `*sharing`;
/// prints the error and returns false on an unknown value.
bool ParseSharingFlag(const std::map<std::string, std::string>& flags,
                      BatchSharing* sharing) {
  auto it = flags.find("sharing");
  if (it == flags.end()) return true;
  if (it->second == "isolated") {
    *sharing = BatchSharing::kIsolated;
  } else if (it->second == "pooled") {
    *sharing = BatchSharing::kPooled;
  } else {
    Fail("unknown sharing: " + it->second + " (want isolated|pooled)");
    return false;
  }
  return true;
}

/// Parses one optional non-negative integer flag; prints the error and
/// returns false on a bad value, leaves `*out` untouched when absent.
bool ParseUintFlag(const std::map<std::string, std::string>& flags,
                   const char* key, uint64_t* out) {
  auto it = flags.find(key);
  if (it == flags.end()) return true;
  auto parsed = ParseUint(it->second);
  if (!parsed.ok()) {
    Fail(std::string("--") + key + " expects a non-negative integer, got " +
         it->second);
    return false;
  }
  *out = *parsed;
  return true;
}

/// Parses one optional double flag constrained to [lo, hi]; prints the
/// error and returns false on a bad value (NaN included), leaves `*out`
/// untouched when absent.
bool ParseDoubleFlag(const std::map<std::string, std::string>& flags,
                     const char* key, double lo, double hi, double* out) {
  auto it = flags.find(key);
  if (it == flags.end()) return true;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok() || !(*parsed >= lo && *parsed <= hi)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "--%s expects a number in [%g, %g], got ",
                  key, lo, hi);
    Fail(buf + it->second);
    return false;
  }
  *out = *parsed;
  return true;
}

/// Parses the optional resource-governance flags shared by batch and
/// stream: cache capacity/sharding, admission queue caps, and the
/// backpressure policy. Limits of 0 (the default) mean unbounded.
bool ParseResourceFlags(const std::map<std::string, std::string>& flags,
                        ResourceOptions* resources) {
  if (!ParseUintFlag(flags, "cache-max-bytes", &resources->cache_max_bytes) ||
      !ParseUintFlag(flags, "cache-max-entries",
                     &resources->cache_max_entries) ||
      !ParseUintFlag(flags, "queue-max-atomic",
                     &resources->queue_max_atomic_tasks) ||
      !ParseUintFlag(flags, "queue-max-bytes", &resources->queue_max_bytes)) {
    return false;
  }
  uint64_t shards = resources->cache_shards;
  if (!ParseUintFlag(flags, "cache-shards", &shards)) return false;
  if (shards == 0 || shards > 4096) {
    Fail("--cache-shards expects an integer in [1, 4096]");
    return false;
  }
  resources->cache_shards = static_cast<uint32_t>(shards);
  if (auto it = flags.find("backpressure"); it != flags.end()) {
    if (it->second == "block") {
      resources->backpressure = BackpressurePolicy::kBlock;
    } else if (it->second == "reject") {
      resources->backpressure = BackpressurePolicy::kReject;
    } else if (it->second == "shed-oldest") {
      resources->backpressure = BackpressurePolicy::kShedOldest;
    } else {
      Fail("unknown backpressure: " + it->second +
           " (want block|reject|shed-oldest)");
      return false;
    }
  }
  return true;
}

/// Parses an optional `--threads K` flag (K in [0, 1024]) into `*threads`;
/// prints the error and returns false on a bad value.
bool ParseThreadsFlag(const std::map<std::string, std::string>& flags,
                      uint32_t* threads) {
  auto it = flags.find("threads");
  if (it == flags.end()) return true;
  auto parsed = ParseUint(it->second);
  if (!parsed.ok() || *parsed > 1024) {
    Fail("--threads expects an integer in [0, 1024], got " + it->second);
    return false;
  }
  *threads = static_cast<uint32_t>(*parsed);
  return true;
}

/// Parses the admission flags shared by stream, serve and serve-loop into
/// `*options`: the flush caps and deadline, solver threads, bin sharing and
/// the resource flags. Prints the error and returns false on a bad value;
/// absent flags keep `*options`' values.
bool ParseStreamingFlags(const std::map<std::string, std::string>& flags,
                         StreamingOptions* options) {
  uint64_t max_atomic = options->max_pending_atomic_tasks;
  uint64_t max_submissions = options->max_pending_submissions;
  double max_delay_ms = options->max_delay_seconds * 1e3;
  if (!ParseUintFlag(flags, "max-pending-atomic", &max_atomic) ||
      !ParseUintFlag(flags, "max-pending-submissions", &max_submissions) ||
      !ParseDoubleFlag(flags, "max-delay-ms", 0.0, 1e9, &max_delay_ms) ||
      !ParseThreadsFlag(flags, &options->num_threads) ||
      !ParseSharingFlag(flags, &options->sharing) ||
      !ParseResourceFlags(flags, &options->resources)) {
    return false;
  }
  options->max_pending_atomic_tasks = static_cast<size_t>(max_atomic);
  options->max_pending_submissions = static_cast<size_t>(max_submissions);
  options->max_delay_seconds = max_delay_ms / 1e3;
  return true;
}

/// Parses `--dataset jelly|smic` (the caller checks it is present) into
/// `*kind` and an optional `--max-cardinality M`, M in [1, 64], into
/// `*max_cardinality`. Prints the error and returns false on a bad value.
bool ParseDatasetFlags(const std::map<std::string, std::string>& flags,
                       DatasetKind* kind, uint32_t* max_cardinality) {
  const std::string& dataset = flags.at("dataset");
  if (dataset == "jelly") {
    *kind = DatasetKind::kJelly;
  } else if (dataset == "smic") {
    *kind = DatasetKind::kSmic;
  } else {
    Fail("unknown dataset: " + dataset);
    return false;
  }
  uint64_t cardinality = *max_cardinality;
  if (!ParseUintFlag(flags, "max-cardinality", &cardinality)) return false;
  if (cardinality == 0 || cardinality > 64) {
    Fail("--max-cardinality expects an integer in [1, 64]");
    return false;
  }
  *max_cardinality = static_cast<uint32_t>(cardinality);
  return true;
}

Result<std::unique_ptr<Solver>> MakeNamedSolver(const std::string& name,
                                                const SolverOptions& options) {
  if (name == "greedy") return MakeSolver(SolverKind::kGreedy, options);
  if (name == "opq") return MakeSolver(SolverKind::kOpq, options);
  if (name == "opq-extended") {
    return MakeSolver(SolverKind::kOpqExtended, options);
  }
  if (name == "baseline") return MakeSolver(SolverKind::kBaseline, options);
  if (name == "fixed") {
    return std::unique_ptr<Solver>(new FixedCardinalitySolver());
  }
  return Status::InvalidArgument("unknown solver: " + name);
}

int CmdProfile(const std::map<std::string, std::string>& flags) {
  auto out = flags.find("out");
  if (flags.count("dataset") == 0 || flags.count("max-cardinality") == 0 ||
      out == flags.end()) {
    return Usage();
  }
  DatasetKind kind;
  uint32_t max_cardinality = 0;
  if (!ParseDatasetFlags(flags, &kind, &max_cardinality)) return 1;
  auto profile = BuildProfile(MakeModel(kind), max_cardinality);
  if (!profile.ok()) return Fail(profile.status().ToString());
  Status st = SaveBinProfileCsv(*profile, out->second);
  if (!st.ok()) return Fail(st.ToString());
  std::cout << "wrote " << out->second << "\n" << profile->ToString();
  return 0;
}

int CmdSolve(const std::map<std::string, std::string>& flags) {
  auto profile_flag = flags.find("profile");
  if (profile_flag == flags.end()) return Usage();
  auto profile = LoadBinProfileCsv(profile_flag->second);
  if (!profile.ok()) return Fail(profile.status().ToString());
  auto task = LoadTask(flags);
  if (!task.ok()) return Fail(task.status().ToString());

  SolverOptions options;
  if (auto seed = flags.find("seed"); seed != flags.end()) {
    options.seed = std::strtoull(seed->second.c_str(), nullptr, 10);
  }
  const std::string solver_name =
      flags.count("solver") ? flags.at("solver") : "opq-extended";
  auto solver = MakeNamedSolver(solver_name, options);
  if (!solver.ok()) return Fail(solver.status().ToString());

  Stopwatch watch;
  auto plan = (*solver)->Solve(*task, *profile);
  if (!plan.ok()) return Fail(plan.status().ToString());
  const double seconds = watch.ElapsedSeconds();

  auto report = ValidatePlan(*plan, *task, *profile);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("task: %s\n", task->ToString().c_str());
  std::printf("solver: %s (%.3f s)\n", (*solver)->name().c_str(), seconds);
  std::printf("%s\n", plan->Summary(*profile).c_str());
  std::printf("feasible: %s (worst log margin %.6f)\n",
              report->feasible ? "yes" : "NO", report->worst_log_margin);
  if (auto out = flags.find("out"); out != flags.end()) {
    Status st = SavePlanCsv(*plan, out->second);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("plan written to %s\n", out->second.c_str());
  }
  return report->feasible ? 0 : 3;
}

int CmdOpq(const std::map<std::string, std::string>& flags) {
  auto profile_flag = flags.find("profile");
  auto threshold = flags.find("threshold");
  if (profile_flag == flags.end() || threshold == flags.end()) {
    return Usage();
  }
  auto profile = LoadBinProfileCsv(profile_flag->second);
  if (!profile.ok()) return Fail(profile.status().ToString());
  const double t = std::strtod(threshold->second.c_str(), nullptr);
  auto opq = BuildOpq(*profile, t);
  if (!opq.ok()) return Fail(opq.status().ToString());
  std::cout << opq->ToString();
  return 0;
}

int CmdValidate(const std::map<std::string, std::string>& flags) {
  auto profile_flag = flags.find("profile");
  auto plan_flag = flags.find("plan");
  if (profile_flag == flags.end() || plan_flag == flags.end()) {
    return Usage();
  }
  auto profile = LoadBinProfileCsv(profile_flag->second);
  if (!profile.ok()) return Fail(profile.status().ToString());
  auto task = LoadTask(flags);
  if (!task.ok()) return Fail(task.status().ToString());
  auto plan = LoadPlanCsv(plan_flag->second);
  if (!plan.ok()) return Fail(plan.status().ToString());
  auto report = ValidatePlan(*plan, *task, *profile);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("cost: %.6f\nfeasible: %s (worst log margin %.6f, task %u)\n",
              report->total_cost, report->feasible ? "yes" : "NO",
              report->worst_log_margin, report->worst_task);
  return report->feasible ? 0 : 3;
}

int CmdBatch(const std::map<std::string, std::string>& flags) {
  auto profile_flag = flags.find("profile");
  auto workload_flag = flags.find("workload");
  if (profile_flag == flags.end() || workload_flag == flags.end()) {
    return Usage();
  }
  auto profile = LoadBinProfileCsv(profile_flag->second);
  if (!profile.ok()) return Fail(profile.status().ToString());
  auto tasks = LoadBatchWorkloadCsv(workload_flag->second);
  if (!tasks.ok()) return Fail(tasks.status().ToString());

  const std::string mode =
      flags.count("mode") ? flags.at("mode") : "engine";
  uint64_t node_budget = EngineOptions{}.opq_node_budget;
  if (!ParseUintFlag(flags, "node-budget", &node_budget)) return 1;
  if (node_budget == 0) return Fail("--node-budget must be >= 1");
  const bool verbose = flags.count("verbose") != 0;
  Result<BatchReport> report = Status::Internal("unreachable");
  std::string cache_line;
  if (mode == "engine") {
    EngineOptions options;
    options.opq_node_budget = node_budget;
    if (!ParseThreadsFlag(flags, &options.num_threads)) return 1;
    if (!ParseSharingFlag(flags, &options.sharing)) return 1;
    if (!ParseResourceFlags(flags, &options.resources)) return 1;
    DecompositionEngine engine(options);
    std::printf("engine: %zu threads, %s sharing\n", engine.num_threads(),
                BatchSharingName(options.sharing));
    report = engine.SolveBatch(*tasks, *profile);
    const CacheStats cache_stats = engine.cache().stats();
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "opq cache: %.1f%% hit rate, %llu entries, %llu evictions, "
                  "%llu bytes resident\n",
                  cache_stats.hit_rate() * 100.0,
                  static_cast<unsigned long long>(cache_stats.entries),
                  static_cast<unsigned long long>(cache_stats.evictions),
                  static_cast<unsigned long long>(cache_stats.bytes));
    cache_line = buf;
    if (verbose) {
      std::snprintf(
          buf, sizeof(buf),
          "opq builds: %llu enumerations, %llu nodes visited, "
          "%llu pruned, %llu insertions, %.4f s build time "
          "(node budget %llu)\n",
          static_cast<unsigned long long>(cache_stats.builds),
          static_cast<unsigned long long>(
              cache_stats.build_stats.nodes_visited),
          static_cast<unsigned long long>(
              cache_stats.build_stats.nodes_pruned_dominated),
          static_cast<unsigned long long>(
              cache_stats.build_stats.insertions),
          cache_stats.build_seconds,
          static_cast<unsigned long long>(node_budget));
      cache_line += buf;
    }
  } else if (mode == "sequential") {
    if (verbose) {
      std::printf("note: --verbose build stats are collected by the engine "
                  "cache; the sequential reference loop reports none\n");
    }
    SolverOptions options;
    options.opq_node_budget = node_budget;
    report = SolveBatchSequential(*tasks, *profile, options);
  } else {
    return Fail("unknown mode: " + mode + " (want engine|sequential)");
  }
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("%s%s", report->ToString().c_str(), cache_line.c_str());

  auto merged_task = ConcatenateTasks(*tasks);
  if (!merged_task.ok()) return Fail(merged_task.status().ToString());
  auto validation = ValidatePlan(report->plan, *merged_task, *profile);
  if (!validation.ok()) return Fail(validation.status().ToString());
  std::printf("feasible: %s (worst log margin %.6f)\n",
              validation->feasible ? "yes" : "NO",
              validation->worst_log_margin);
  if (auto out = flags.find("out"); out != flags.end()) {
    Status st = SavePlanCsv(report->plan, out->second);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("merged plan written to %s (global atomic-task ids)\n",
                out->second.c_str());
  }
  return validation->feasible ? 0 : 3;
}

int CmdStream(const std::map<std::string, std::string>& flags) {
  auto profile_flag = flags.find("profile");
  auto workload_flag = flags.find("workload");
  if (profile_flag == flags.end() || workload_flag == flags.end()) {
    return Usage();
  }
  auto profile = LoadBinProfileCsv(profile_flag->second);
  if (!profile.ok()) return Fail(profile.status().ToString());

  StreamingOptions options;
  if (!ParseStreamingFlags(flags, &options)) return 1;
  double speed = 0.0;
  if (!ParseDoubleFlag(flags, "speed", 0.0, 1e9, &speed)) return 1;
  FileReplayOptions replay_options;
  replay_options.path = workload_flag->second;
  replay_options.speedup = speed;
  if (!ParseUintFlag(flags, "loop", &replay_options.loop_count)) return 1;
  if (auto it = flags.find("id-prefix"); it != flags.end()) {
    replay_options.submission_id_prefix = it->second;
  }
  auto source = FileReplaySource::Open(std::move(replay_options));
  if (!source.ok()) return Fail(source.status().ToString());

  std::printf("streaming: sharing %s, flush at %zu atomic / %zu submissions"
              " / %.1f ms, backpressure %s\n",
              BatchSharingName(options.sharing),
              options.max_pending_atomic_tasks,
              options.max_pending_submissions,
              options.max_delay_seconds * 1e3,
              BackpressurePolicyName(options.resources.backpressure));

  // Replay the tape through the ingestion connector and collect one
  // future per submission.
  Stopwatch wall;
  StreamingEngine engine(*profile, options);
  std::vector<std::future<Result<RequesterPlan>>> futures;
  std::vector<TimedSubmission> delivered;
  futures.reserve((*source)->tape_size());
  delivered.reserve((*source)->tape_size());
  TimedSubmission submission;
  for (;;) {
    auto next = (*source)->Next(&submission);
    if (!next.ok()) return Fail(next.status().ToString());
    if (!*next) break;
    delivered.push_back(submission);  // keeps the tasks for validation
    futures.push_back(engine.Submit(submission.requester,
                                    std::move(submission.tasks),
                                    std::move(submission.submission_id)));
  }
  engine.Drain();
  const double replay_seconds = wall.ElapsedSeconds();

  // Per-requester aggregation of the delivered slices.
  struct RequesterTotals {
    uint64_t submissions = 0;
    uint64_t tasks = 0;
    uint64_t atomic = 0;
    double cost = 0.0;
    uint64_t bins = 0;
    double latency_sum = 0.0;
    bool feasible = true;
  };
  std::map<std::string, RequesterTotals> totals;  // sorted output
  bool all_feasible = true;
  uint64_t backpressured = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const TimedSubmission& delivered_submission = delivered[i];
    auto slice = futures[i].get();
    if (!slice.ok()) {
      // Rejected / shed submissions are an expected outcome of a bounded
      // queue, reported in the summary; anything else is a real failure.
      if (slice.status().IsResourceExhausted()) {
        backpressured += 1;
        continue;
      }
      return Fail(slice.status().ToString());
    }
    auto merged = ConcatenateTasks(delivered_submission.tasks);
    if (!merged.ok()) return Fail(merged.status().ToString());
    auto validation = ValidatePlan(slice->plan, *merged, *profile);
    if (!validation.ok()) return Fail(validation.status().ToString());
    RequesterTotals& t = totals[slice->requester_id];
    t.submissions += 1;
    t.tasks += slice->num_tasks();
    t.atomic += slice->num_atomic_tasks();
    t.cost += slice->cost;
    t.bins += slice->bins_posted;
    t.latency_sum += slice->latency_seconds;
    t.feasible = t.feasible && validation->feasible;
    all_feasible = all_feasible && validation->feasible;
  }

  TablePrinter table({"requester", "submissions", "tasks", "atomic", "cost",
                      "bins", "mean latency ms", "feasible"});
  for (const auto& [requester, t] : totals) {
    table.AddRow({requester, std::to_string(t.submissions),
                  std::to_string(t.tasks), std::to_string(t.atomic),
                  TablePrinter::FormatDouble(t.cost, 4),
                  std::to_string(t.bins),
                  TablePrinter::FormatDouble(
                      t.latency_sum / t.submissions * 1e3, 3),
                  t.feasible ? "yes" : "NO"});
  }
  table.Print(std::cout);

  StreamingStats stats = engine.stats();
  const CacheStats cache_stats = engine.cache().stats();
  std::printf(
      "replayed %llu admitted submissions (%llu tasks, %llu atomic) in "
      "%.3f s\n"
      "%llu flushes (%llu size, %llu deadline, %llu drain), "
      "solve %.3f s, cost %.4f\n"
      "opq cache: %llu hits, %llu misses (%.1f%% hit rate), %llu entries, "
      "%llu evictions, %llu bytes resident (peak %llu)\n"
      "backpressure: %llu rejected, %llu shed, %llu blocked "
      "(peak queue %llu atomic / %llu bytes)\n",
      static_cast<unsigned long long>(stats.submissions),
      static_cast<unsigned long long>(stats.tasks),
      static_cast<unsigned long long>(stats.atomic_tasks), replay_seconds,
      static_cast<unsigned long long>(stats.flushes),
      static_cast<unsigned long long>(stats.flushes_by_size),
      static_cast<unsigned long long>(stats.flushes_by_deadline),
      static_cast<unsigned long long>(stats.flushes_by_drain),
      stats.solve_seconds, stats.total_cost,
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      cache_stats.hit_rate() * 100.0,
      static_cast<unsigned long long>(cache_stats.entries),
      static_cast<unsigned long long>(cache_stats.evictions),
      static_cast<unsigned long long>(cache_stats.bytes),
      static_cast<unsigned long long>(cache_stats.peak_bytes),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.blocked),
      static_cast<unsigned long long>(stats.peak_queue_atomic_tasks),
      static_cast<unsigned long long>(stats.peak_queue_bytes));
  if (backpressured > 0) {
    std::printf("%llu of %zu submissions failed with ResourceExhausted "
                "(rejected or shed)\n",
                static_cast<unsigned long long>(backpressured),
                futures.size());
  }
  return all_feasible ? 0 : 3;
}

std::atomic<bool> g_serve_stop{false};

void OnServeSignal(int) { g_serve_stop.store(true); }

/// Parses the fairness flags shared with FairnessOptions; giving any of
/// them implies --fairness.
bool ParseFairnessFlags(const std::map<std::string, std::string>& flags,
                        FairnessOptions* fairness) {
  fairness->enabled =
      flags.count("fairness") || flags.count("fair-quantum") ||
      flags.count("default-weight") || flags.count("tenant-weights") ||
      flags.count("tenant-max-atomic") || flags.count("tenant-max-bytes");
  if (!ParseUintFlag(flags, "fair-quantum", &fairness->quantum_atomic_tasks) ||
      !ParseUintFlag(flags, "default-weight", &fairness->default_weight) ||
      !ParseUintFlag(flags, "tenant-max-atomic",
                     &fairness->tenant_max_pending_atomic_tasks) ||
      !ParseUintFlag(flags, "tenant-max-bytes",
                     &fairness->tenant_max_pending_bytes)) {
    return false;
  }
  if (auto it = flags.find("tenant-weights"); it != flags.end()) {
    // Comma-separated name=weight pairs: --tenant-weights gold=4,free=1
    std::string spec = it->second;
    size_t begin = 0;
    while (begin <= spec.size()) {
      size_t end = spec.find(',', begin);
      if (end == std::string::npos) end = spec.size();
      const std::string pair = spec.substr(begin, end - begin);
      const size_t eq = pair.find('=');
      uint64_t weight = 0;
      if (eq == 0 || eq == std::string::npos ||
          !ParseUint(pair.substr(eq + 1)).ok() ||
          (weight = *ParseUint(pair.substr(eq + 1))) == 0) {
        Fail("--tenant-weights expects name=W pairs with W >= 1, got '" +
             pair + "'");
        return false;
      }
      fairness->weights[pair.substr(0, eq)] = weight;
      begin = end + 1;
      if (end == spec.size()) break;
    }
  }
  return true;
}

/// Parses the multi-platform registry flags shared by serve and
/// serve-loop: `--profiles name=FILE,...` registers one platform per CSV
/// profile, `--routing cheapest|sticky|explicit` picks the policy, and
/// `--recalibrate-every` / `--drift-tolerance` configure the online
/// recalibration loop. Any of them creates the registry; `*registry`
/// stays null when none is given (single-profile serving, the previous
/// behavior). Prints the error and returns false on a bad value.
bool ParseRegistryFlags(const std::map<std::string, std::string>& flags,
                        std::unique_ptr<ProfileRegistry>* registry,
                        RoutingPolicy* routing) {
  RecalibrationOptions recalibration;
  if (!ParseUintFlag(flags, "recalibrate-every",
                     &recalibration.recalibrate_every) ||
      !ParseDoubleFlag(flags, "drift-tolerance", 0.0, 1.0,
                       &recalibration.drift_tolerance)) {
    return false;
  }
  if (auto it = flags.find("routing"); it != flags.end()) {
    auto parsed = ParseRoutingPolicy(it->second);
    if (!parsed.ok()) {
      Fail(parsed.status().ToString());
      return false;
    }
    *routing = *parsed;
  }
  if (!flags.count("profiles") && !flags.count("routing") &&
      !flags.count("recalibrate-every") && !flags.count("drift-tolerance")) {
    return true;
  }
  *registry = std::make_unique<ProfileRegistry>(recalibration);
  if (auto it = flags.find("profiles"); it != flags.end()) {
    const std::string& spec = it->second;
    size_t begin = 0;
    while (begin < spec.size()) {
      size_t end = spec.find(',', begin);
      if (end == std::string::npos) end = spec.size();
      const std::string pair = spec.substr(begin, end - begin);
      const size_t eq = pair.find('=');
      if (eq == 0 || eq == std::string::npos || eq + 1 >= pair.size()) {
        Fail("--profiles expects name=FILE pairs, got '" + pair + "'");
        return false;
      }
      auto profile = LoadBinProfileCsv(pair.substr(eq + 1));
      if (!profile.ok()) {
        Fail(profile.status().ToString());
        return false;
      }
      auto registered =
          (*registry)->Register(pair.substr(0, eq), std::move(*profile));
      if (!registered.ok()) {
        Fail(registered.status().ToString());
        return false;
      }
      begin = end + 1;
    }
  }
  return true;
}

/// Prints one line of routing/recalibration counters per platform.
void PrintPlatformStats(const ProfileRegistry& registry) {
  for (const PlatformStats& p : registry.stats()) {
    std::printf(
        "platform %s: epoch %llu%s, %llu promotion(s), %llu submission(s) "
        "routed (%llu atomic), billed %.4f, %llu answer(s) folded, "
        "last drift %.4f\n",
        p.platform_id.c_str(), static_cast<unsigned long long>(p.epoch),
        p.live ? "" : " (retired)",
        static_cast<unsigned long long>(p.promotions),
        static_cast<unsigned long long>(p.routed_submissions),
        static_cast<unsigned long long>(p.routed_atomic_tasks), p.billed_cost,
        static_cast<unsigned long long>(p.answers_folded),
        p.last_recalibration_delta);
  }
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  // Multi-platform registry first: with --profiles, the engine's ctor
  // profile may fall back to the first registered platform's. The
  // registry outlives the engine (declared before it, destroyed after),
  // which the engine's epoch listener requires.
  StreamingOptions options;
  std::unique_ptr<ProfileRegistry> registry;
  if (!ParseRegistryFlags(flags, &registry, &options.routing)) return 1;

  // The bin profile comes from a CSV, a built-in dataset model, or (for
  // the single-profile ctor fallback) the first registered platform.
  Result<BinProfile> profile = Status::Internal("unreachable");
  if (auto it = flags.find("profile"); it != flags.end()) {
    profile = LoadBinProfileCsv(it->second);
  } else if (flags.count("dataset") != 0) {
    DatasetKind kind;
    uint32_t max_cardinality = 10;
    if (!ParseDatasetFlags(flags, &kind, &max_cardinality)) return 1;
    profile = BuildProfile(MakeModel(kind), max_cardinality);
  } else if (registry != nullptr && registry->live_count() > 0) {
    profile = BinProfile(*registry->LiveSnapshots().front().profile);
  } else {
    return Usage();
  }
  if (!profile.ok()) return Fail(profile.status().ToString());
  if (registry != nullptr) {
    if (registry->live_count() == 0) {
      // --routing/--recalibrate-every without --profiles: serve the
      // single loaded profile through the registry as platform "default".
      auto registered = registry->Register("default", *profile);
      if (!registered.ok()) return Fail(registered.status().ToString());
    }
    options.registry = registry.get();
  }

  if (!ParseStreamingFlags(flags, &options)) return 1;
  if (!ParseFairnessFlags(flags, &options.fairness)) return 1;

  ServerOptions server_options;
  uint64_t port = 8080;
  uint64_t workers = server_options.num_workers;
  uint64_t max_connections = server_options.max_connections;
  uint64_t max_body = server_options.parser_limits.max_body_bytes;
  if (!ParseUintFlag(flags, "port", &port) ||
      !ParseUintFlag(flags, "workers", &workers) ||
      !ParseUintFlag(flags, "max-connections", &max_connections) ||
      !ParseUintFlag(flags, "retry-after",
                     &server_options.retry_after_seconds) ||
      !ParseUintFlag(flags, "max-body-bytes", &max_body)) {
    return 1;
  }
  if (port > 65535) return Fail("--port expects an integer in [0, 65535]");
  if (workers == 0 || workers > 256) {
    return Fail("--workers expects an integer in [1, 256]");
  }
  if (max_connections == 0) return Fail("--max-connections must be >= 1");
  if (max_body == 0) return Fail("--max-body-bytes must be >= 1");
  server_options.port = static_cast<uint16_t>(port);
  server_options.num_workers = static_cast<size_t>(workers);
  server_options.max_connections = static_cast<size_t>(max_connections);
  server_options.parser_limits.max_body_bytes = static_cast<size_t>(max_body);
  if (auto it = flags.find("address"); it != flags.end()) {
    server_options.address = it->second;
  }

  // Durability: --wal-dir opens (and recovers) the submission journal
  // before the engine exists, so every admission below is logged.
  std::unique_ptr<SubmissionJournal> journal;
  std::vector<RecoveredSubmission> recovered;
  if (auto it = flags.find("wal-dir"); it != flags.end()) {
    JournalOptions journal_options;
    journal_options.wal.dir = it->second;
    if (!ParseUintFlag(flags, "wal-segment-bytes",
                       &journal_options.wal.segment_max_bytes)) {
      return 1;
    }
    if (journal_options.wal.segment_max_bytes == 0) {
      return Fail("--wal-segment-bytes must be >= 1");
    }
    auto opened = SubmissionJournal::Open(std::move(journal_options));
    if (!opened.ok()) return Fail(opened.status().ToString());
    journal = std::move(opened->journal);
    recovered = std::move(opened->pending);
    options.durability = journal.get();
  }
  server_options.journal = journal.get();

  // Background tape feed through the ingestion connector (optional).
  std::unique_ptr<FileReplaySource> replay_source;
  if (auto it = flags.find("replay"); it != flags.end()) {
    FileReplayOptions replay_options;
    replay_options.path = it->second;
    if (!ParseDoubleFlag(flags, "replay-speed", 0.0, 1e9,
                         &replay_options.speedup) ||
        !ParseUintFlag(flags, "replay-loop", &replay_options.loop_count)) {
      return 1;
    }
    if (auto prefix = flags.find("replay-id-prefix");
        prefix != flags.end()) {
      replay_options.submission_id_prefix = prefix->second;
    }
    auto src = FileReplaySource::Open(std::move(replay_options));
    if (!src.ok()) return Fail(src.status().ToString());
    replay_source = std::move(*src);
  }

  StreamingEngine engine(*profile, options);
  if (journal != nullptr) {
    const JournalRecoveryInfo recovery = journal->stats().recovery;
    const size_t readmitted = engine.ReplayRecovered(std::move(recovered));
    if (Status st = journal->CommitRecovery(); !st.ok()) {
      return Fail(st.ToString());
    }
    std::string torn;
    if (recovery.truncated) {
      torn = " (torn tail: " + std::to_string(recovery.truncated_bytes) +
             " bytes truncated, " + recovery.truncate_reason + ")";
    }
    std::printf(
        "wal: %s; %llu records over %llu segments, %llu outcomes retained, "
        "%zu unfinished submissions re-admitted%s\n",
        recovery.clean_shutdown ? "clean shutdown" : "recovered",
        static_cast<unsigned long long>(recovery.records_replayed),
        static_cast<unsigned long long>(recovery.segments_scanned),
        static_cast<unsigned long long>(recovery.outcomes_recovered),
        readmitted, torn.c_str());
  }
  SladeServer server(&engine, server_options);
  if (Status st = server.Start(); !st.ok()) return Fail(st.ToString());

  std::thread replay_thread;
  if (replay_source != nullptr) {
    replay_thread = std::thread([&engine, source = replay_source.get()] {
      TimedSubmission submission;
      for (;;) {
        auto next = source->Next(&submission);
        if (!next.ok() || !*next) return;
        // Fire and forget: the feed's outcomes show up in /v1/stats, and
        // a rejected submission is an expected backpressure outcome.
        engine.Submit(submission.requester, std::move(submission.tasks),
                      std::move(submission.submission_id));
      }
    });
  }

  std::printf("listening on %s:%u (%zu workers, %s sharing, fairness %s, "
              "backpressure %s)\n",
              server_options.address.c_str(), server.port(),
              server_options.num_workers, BatchSharingName(options.sharing),
              options.fairness.enabled ? "on" : "off",
              BackpressurePolicyName(options.resources.backpressure));
  if (registry != nullptr) {
    std::printf("routing: %s policy over %zu platform(s), recalibrate every "
                "%llu answer(s), drift tolerance %.3f\n",
                RoutingPolicyName(options.routing), registry->live_count(),
                static_cast<unsigned long long>(
                    registry->recalibration().recalibrate_every),
                registry->recalibration().drift_tolerance);
  }
  std::fflush(stdout);  // scripts parse the bound port from this line

  std::signal(SIGINT, OnServeSignal);
  std::signal(SIGTERM, OnServeSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down: draining in-flight requests\n");
  if (replay_source != nullptr) replay_source->Cancel();
  if (replay_thread.joinable()) replay_thread.join();
  // Shutdown drains the engine and, with --wal-dir, writes the
  // clean-shutdown checkpoint so the next start skips the replay scan.
  server.Shutdown();
  engine.Drain();

  const ServerStats stats = server.stats();
  const StreamingStats engine_stats = engine.stats();
  std::printf(
      "served %llu requests over %llu connections "
      "(%llu 2xx, %llu 4xx, %llu 5xx, %llu backpressure 429s)\n"
      "engine: %llu submissions, %llu flushes, solve %.3f s, cost %.4f\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.responses_2xx),
      static_cast<unsigned long long>(stats.responses_4xx),
      static_cast<unsigned long long>(stats.responses_5xx),
      static_cast<unsigned long long>(stats.rejected_429),
      static_cast<unsigned long long>(engine_stats.submissions),
      static_cast<unsigned long long>(engine_stats.flushes),
      engine_stats.solve_seconds, engine_stats.total_cost);
  if (replay_source != nullptr) {
    std::printf("replay feed: %llu submissions delivered from the tape\n",
                static_cast<unsigned long long>(replay_source->delivered()));
  }
  if (registry != nullptr) PrintPlatformStats(*registry);
  if (journal != nullptr) {
    const JournalStats journal_stats = journal->stats();
    std::printf(
        "durability: %llu records appended (%llu admits, %llu completes, "
        "%llu rejects, %llu checkpoints), %llu fsyncs, "
        "commit batch p50 %.1f / p95 %.1f, %llu duplicate hits\n",
        static_cast<unsigned long long>(
            journal_stats.wal.records_appended),
        static_cast<unsigned long long>(journal_stats.admits),
        static_cast<unsigned long long>(journal_stats.completes),
        static_cast<unsigned long long>(journal_stats.rejects),
        static_cast<unsigned long long>(journal_stats.checkpoints),
        static_cast<unsigned long long>(journal_stats.wal.fsyncs),
        journal_stats.wal.commit_batch_p50,
        journal_stats.wal.commit_batch_p95,
        static_cast<unsigned long long>(engine_stats.duplicate_hits));
  }
  return 0;
}

int CmdServeLoop(const std::map<std::string, std::string>& flags) {
  auto workload_flag = flags.find("workload");
  if (flags.count("dataset") == 0 || workload_flag == flags.end()) {
    return Usage();
  }
  DatasetKind kind;
  uint32_t max_cardinality = 10;
  if (!ParseDatasetFlags(flags, &kind, &max_cardinality)) return 1;
  // One model drives both the planner's bin profile and the simulated
  // workers, so the loop's plans are calibrated to its marketplace.
  const DatasetModel model = MakeModel(kind);
  auto profile = BuildProfile(model, max_cardinality);
  if (!profile.ok()) return Fail(profile.status().ToString());
  auto submissions = LoadTimedWorkloadCsv(workload_flag->second);
  if (!submissions.ok()) return Fail(submissions.status().ToString());
  if (submissions->empty()) return Fail("workload is empty");

  ClosedLoopOptions options;
  options.platform.model = model;

  // Loop shape.
  uint64_t rounds = options.max_rounds;
  uint64_t dispatch_threads = options.dispatch_threads;
  if (!ParseUintFlag(flags, "rounds", &rounds) ||
      !ParseUintFlag(flags, "dispatch-threads", &dispatch_threads) ||
      !ParseUintFlag(flags, "max-redecompositions",
                     &options.max_redecomposed_atomic_tasks)) {
    return 1;
  }
  if (rounds == 0 || rounds > 64) {
    return Fail("--rounds expects an integer in [1, 64]");
  }
  if (dispatch_threads == 0 || dispatch_threads > 1024) {
    return Fail("--dispatch-threads expects an integer in [1, 1024]");
  }
  options.max_rounds = static_cast<uint32_t>(rounds);
  options.dispatch_threads = static_cast<uint32_t>(dispatch_threads);
  if (!ParseDoubleFlag(flags, "retry-cost-multiple", 0.0, 1e6,
                       &options.retry_cost_multiple)) {
    return 1;
  }
  if (auto it = flags.find("inference"); it != flags.end()) {
    if (it->second == "majority") {
      options.inference = InferenceKind::kMajorityVote;
    } else if (it->second == "ds" || it->second == "dawid-skene") {
      options.inference = InferenceKind::kDawidSkene;
    } else {
      return Fail("unknown inference: " + it->second + " (want majority|ds)");
    }
  }

  // Marketplace steady state.
  uint64_t population = options.platform.population;
  if (!ParseUintFlag(flags, "platform-seed", &options.platform.seed) ||
      !ParseUintFlag(flags, "population", &population) ||
      !ParseDoubleFlag(flags, "skill-sigma", 0.0, 10.0,
                       &options.platform.skill_sigma) ||
      !ParseDoubleFlag(flags, "spammers", 0.0, 1.0,
                       &options.platform.spammer_fraction)) {
    return 1;
  }
  if (population == 0 || population > (1ull << 31)) {
    return Fail("--population expects an integer in [1, 2^31]");
  }
  options.platform.population = static_cast<uint32_t>(population);

  // Fault schedule.
  if (auto it = flags.find("spammer-burst"); it != flags.end()) {
    unsigned long long period = 0, length = 0;
    double fraction = 0.0;
    if (std::sscanf(it->second.c_str(), "%llu,%llu,%lf", &period, &length,
                    &fraction) != 3 ||
        period == 0 || length > period || fraction < 0.0 || fraction > 1.0) {
      return Fail("--spammer-burst expects P,L,F with L <= P and F in [0,1]");
    }
    options.faults.spammer_burst_period = period;
    options.faults.spammer_burst_length = length;
    options.faults.spammer_burst_fraction = fraction;
  }
  if (auto it = flags.find("stragglers"); it != flags.end()) {
    double fraction = 0.0, multiplier = 0.0;
    if (std::sscanf(it->second.c_str(), "%lf,%lf", &fraction, &multiplier) !=
            2 ||
        fraction < 0.0 || fraction > 1.0 || multiplier <= 0.0) {
      return Fail("--stragglers expects F,X with F in [0,1] and X > 0");
    }
    options.faults.straggler_fraction = fraction;
    options.faults.straggler_multiplier = multiplier;
  }
  if (auto it = flags.find("outage"); it != flags.end()) {
    unsigned long long period = 0, length = 0;
    if (std::sscanf(it->second.c_str(), "%llu,%llu", &period, &length) != 2 ||
        period == 0 || length > period) {
      return Fail("--outage expects P,L with L <= P");
    }
    options.faults.outage_period = period;
    options.faults.outage_length = length;
  }
  if (!ParseUintFlag(flags, "churn-period", &options.faults.churn_period) ||
      !ParseUintFlag(flags, "fault-seed", &options.faults.seed)) {
    return 1;
  }

  // Admission path: same flags as `stream`.
  if (!ParseStreamingFlags(flags, &options.streaming)) return 1;

  // Multi-platform registry + online recalibration. With --profiles the
  // registered profiles are the planner's (possibly stale) beliefs about
  // the one simulated marketplace; without it the dataset profile serves
  // as platform "default". The recalibration loop then folds the
  // marketplace's ground-truth-scored answers back into the serving
  // platform and promotes a new epoch when the drift tolerance trips.
  std::unique_ptr<ProfileRegistry> registry;
  if (!ParseRegistryFlags(flags, &registry, &options.streaming.routing)) {
    return 1;
  }
  if (registry != nullptr) {
    if (registry->live_count() == 0) {
      auto registered = registry->Register("default", *profile);
      if (!registered.ok()) return Fail(registered.status().ToString());
    }
    options.streaming.registry = registry.get();
  }

  // Ground truth: drawn per atomic task, independent of the platform's
  // RNG so the same labels replay under any fault scenario.
  double positive_rate = 0.5;
  uint64_t truth_seed = 7;
  if (!ParseDoubleFlag(flags, "positive-rate", 0.0, 1.0, &positive_rate) ||
      !ParseUintFlag(flags, "seed", &truth_seed)) {
    return 1;
  }
  Xoshiro256 truth_rng(truth_seed);
  std::vector<ClosedLoopWorkload> workloads;
  workloads.reserve(submissions->size());
  for (TimedSubmission& submission : *submissions) {
    ClosedLoopWorkload workload;
    workload.requester = std::move(submission.requester);
    workload.tasks = std::move(submission.tasks);
    workload.ground_truth.reserve(workload.num_atomic_tasks());
    for (size_t k = 0; k < workload.num_atomic_tasks(); ++k) {
      workload.ground_truth.push_back(truth_rng.NextBernoulli(positive_rate));
    }
    workloads.push_back(std::move(workload));
  }

  std::printf(
      "serve-loop: %s profile (m=%llu), %zu workload(s), %u round(s) max, "
      "%s inference, %u dispatch thread(s)\n"
      "platform: %u workers, skill sigma %.2f, %.1f%% steady spammers, "
      "faults: %s\n",
      DatasetKindName(kind), static_cast<unsigned long long>(max_cardinality),
      workloads.size(), options.max_rounds,
      InferenceKindName(options.inference), options.dispatch_threads,
      options.platform.population, options.platform.skill_sigma,
      options.platform.spammer_fraction * 100.0,
      options.faults.ToString().c_str());

  Stopwatch wall;
  ClosedLoopEngine engine(*profile, options);
  auto report = engine.Run(workloads);
  if (!report.ok()) return Fail(report.status().ToString());
  const double seconds = wall.ElapsedSeconds();

  std::printf("%s", report->ToString().c_str());
  std::printf(
      "serving: %llu flushes, solve %.3f s; faults: %llu outage verdicts, "
      "%llu burst posts, %llu straggler posts\n"
      "wall: %.3f s (%.0f answers/s)\n",
      static_cast<unsigned long long>(report->streaming.flushes),
      report->streaming.solve_seconds,
      static_cast<unsigned long long>(report->faults.outages),
      static_cast<unsigned long long>(report->faults.burst_posts),
      static_cast<unsigned long long>(report->faults.straggler_posts),
      seconds,
      seconds > 0.0 ? static_cast<double>(report->total_answers) / seconds
                    : 0.0);
  if (registry != nullptr) PrintPlatformStats(*registry);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (!flags) return Usage();
  if (command == "profile") return CmdProfile(*flags);
  if (command == "solve") return CmdSolve(*flags);
  if (command == "opq") return CmdOpq(*flags);
  if (command == "validate") return CmdValidate(*flags);
  if (command == "batch") return CmdBatch(*flags);
  if (command == "stream") return CmdStream(*flags);
  if (command == "serve") return CmdServe(*flags);
  if (command == "serve-loop") return CmdServeLoop(*flags);
  return Usage();
}
