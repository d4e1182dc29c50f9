// e2e_driver: runs one workload of the end-to-end benchmark and prints
// one JSON result line. run.py builds it and is the entry point; see
// README.md.
//
//   e2e_driver --workload W --seed S --seconds T --trace 0|1
//              --cli PATH/slade_cli --no-fsync-lib PATH/libe2e_no_fsync.so
//              --out-dir DIR
//   e2e_driver --digest --workload W --seed S   (request-stream digest)
//   e2e_driver --check-oracle --seed S          (reference vs sequential)
//
// Exit codes: 0 every check passed; 1 a wrong answer or failed check
// (the JSON line still prints); 2 the load generator ran late (phase
// invalid); 3 set-up or usage error (no JSON line).

#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "e2e.h"
#include "solver/plan_arena.h"
#include "workload/workload.h"

namespace slade_e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

namespace {

size_t WindowCount(double span, double window) {
  return std::max<size_t>(1, static_cast<size_t>(span / window));
}

}  // namespace

double WindowedQuantile(const std::vector<double>& offsets,
                        const std::vector<double>& values, double window,
                        double q) {
  double span = 0.0;
  for (double t : offsets) span = std::max(span, t);
  const size_t windows = WindowCount(span, window);
  std::vector<std::vector<double>> parts(windows);
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t w = std::min(windows - 1,
                              static_cast<size_t>(offsets[i] / window));
    parts[w].push_back(values[i]);
  }
  // Calmest first: windows ordered by their own q-quantile.
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t w = 0; w < windows; ++w) {
    if (!parts[w].empty()) ranked.emplace_back(Quantile(parts[w], q), w);
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t calm = std::max<size_t>(1, (ranked.size() + 2) / 4);
  std::vector<double> pooled;
  for (size_t i = 0; i < calm; ++i) {
    const std::vector<double>& part = parts[ranked[i].second];
    pooled.insert(pooled.end(), part.begin(), part.end());
  }
  return Quantile(std::move(pooled), q);
}

double WindowedRate(const std::vector<double>& offsets,
                    const std::vector<double>& weights, double window,
                    double duration) {
  const size_t windows = WindowCount(duration, window);
  const double width = duration / static_cast<double>(windows);
  std::vector<double> sums(windows, 0.0);
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (offsets[i] < 0.0 || offsets[i] >= duration) continue;
    sums[std::min(windows - 1, static_cast<size_t>(offsets[i] / width))] +=
        weights[i];
  }
  for (double& s : sums) s /= width;
  return Quantile(std::move(sums), 0.75);
}

void RunOnThreads(size_t n, const std::function<void(size_t)>& body) {
  std::mutex mutex;
  std::exception_ptr first;  // guarded by mutex
  auto guarded = [&](size_t i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!first) first = std::current_exception();
    }
  };
  {
    std::vector<std::thread> threads;
    struct JoinAll {
      std::vector<std::thread>* threads;
      ~JoinAll() {
        for (std::thread& t : *threads) t.join();
      }
    } join_all{&threads};
    for (size_t i = 1; i < n; ++i) threads.emplace_back(guarded, i);
    guarded(0);
  }
  if (first) std::rethrow_exception(first);
}

void ResetPeakRss() {
  slade::TrimPlanArenaPool();
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // resets VmHWM to the current RSS
  if (!clear_refs.flush()) throw Fatal("cannot reset VmHWM");
}

void SyncFilesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw Fatal("cannot open " + path);
  syncfs(fd);
  close(fd);
}

double PeakRssMb(pid_t pid) {
  std::ifstream status(pid == 0 ? "/proc/self/status"
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw Fatal("no VmHWM for pid " + std::to_string(pid));
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e308 : -1e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += slade::JsonEscape(s);
  out += '"';
  return out;
}

struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

/// Machine-wide CPU time from the first line of /proc/stat.
CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;  // user nice system idle iowait
  }                                       // irq softirq steal
  return ticks;
}

/// FNV-1a over the first requests a workload sends: same seed, same
/// bytes; another seed, other bytes.
int Digest(const std::string& workload, uint64_t seed) {
  constexpr size_t kRequests = 2000;
  uint64_t hash = 1469598103934665603ull;
  auto feed = [&](const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  };
  if (workload == "serve-plain" || workload == "serve-durable") {
    for (uint64_t k = 0; k < kRequests; ++k) {
      feed(ServeRequest(workload == "serve-durable", seed, k));
    }
    for (double t : PoissonSchedule(seed, 1, 4000.0, 0.5)) {
      feed(FormatNumber(t));
    }
  } else if (workload == "stream-fair") {
    for (uint64_t k = 0; k < kRequests; ++k) {
      feed(RenderSubmitRequest(MakeSubmission(Mix::kStream, seed, 1, k), ""));
    }
    for (double t : PoissonSchedule(seed, 1, 40000.0, 0.05)) {
      feed(FormatNumber(t));
    }
  } else if (workload == "batch-pooled") {
    slade::ThresholdSpec spec;
    spec.family = slade::ThresholdFamily::kNormal;
    auto batch = slade::MakeBatchWorkload(slade::DatasetKind::kSmic, kRequests,
                                          500, spec, 20, seed);
    if (!batch.ok()) throw Fatal(batch.status().ToString());
    for (const slade::CrowdsourcingTask& task : batch->tasks) {
      Submission s;
      s.requester = "r";
      s.tasks.push_back(task);
      feed(RenderSubmitRequest(s, ""));
    }
  } else {
    throw Fatal("unknown workload " + workload);
  }
  std::printf("%016llx\n", static_cast<unsigned long long>(hash));
  return 0;
}

/// The reference used to check every answer, against the paper's solver
/// run on each submission alone (SolveBatchSequential: OPQ-Extended per
/// task, no memo, no threads) on a 200-submission tape of each mix.
int CheckOracle(uint64_t seed) {
  constexpr size_t kSubmissions = 200;
  Oracle oracle;
  size_t mismatches = 0;
  double worst = 0.0;
  for (Mix mix : {Mix::kServe, Mix::kStream}) {
    auto make = [&](size_t k) { return MakeSubmission(mix, seed, 9, k); };
    const std::vector<double> costs =
        oracle.Costs(kSubmissions, make, Jelly10());
    for (size_t k = 0; k < kSubmissions; ++k) {
      auto sequential = slade::SolveBatchSequential(make(k).tasks, Jelly10());
      if (!sequential.ok()) throw Fatal(sequential.status().ToString());
      // Price the merged plan the way a slice is priced (one sum over its
      // placements); total_cost sums per-task subtotals instead, which
      // can differ in the last bit.
      const double cost = sequential->plan.TotalCost(Jelly10());
      worst = std::max(worst, std::abs(cost - costs[k]));
      if (cost != costs[k]) mismatches += 1;
    }
  }
  std::printf("oracle vs SolveBatchSequential: %zu of %zu costs differ "
              "(max abs diff %.3g)\n",
              mismatches, 2 * kSubmissions, worst);
  return mismatches == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload W --seed S --seconds T "
               "--trace 0|1 --cli PATH --no-fsync-lib PATH --out-dir DIR\n"
               "       e2e_driver --digest --workload W --seed S\n"
               "       e2e_driver --check-oracle --seed S\n");
  return 3;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    if (key == "--digest" || key == "--check-oracle") {
      flags[key.substr(2)] = "1";
    } else if (i + 1 < argc) {
      flags[key.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  RunConfig config;
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  config.workload = flags["workload"];
  if (flags.count("check-oracle")) return CheckOracle(config.seed);
  if (flags.count("digest")) return Digest(config.workload, config.seed);
  config.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  config.trace = flags["trace"] == "1";
  config.cli_path = flags["cli"];
  config.no_fsync_lib = flags["no-fsync-lib"];
  config.out_dir = flags["out-dir"];
  if (config.seconds <= 0.0 || config.out_dir.empty()) return Usage();

  using Runner = RunResult (*)(const RunConfig&);
  const std::map<std::string, Runner> runners = {
      {"serve-plain", RunServePlain},
      {"serve-durable", RunServeDurable},
      {"stream-fair", RunStreamFair},
      {"batch-pooled", RunBatchPooled}};
  const auto runner = runners.find(config.workload);
  if (runner == runners.end()) return Usage();

  // Sleeps in the load generators wake on time, not up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const CpuTicks before = ReadCpuTicks();
  const RunResult result = runner->second(config);
  const CpuTicks after = ReadCpuTicks();

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  // On a virtual machine the host can take CPU away mid-run; every timing
  // above is only as steady as this share.
  std::printf("# host steal: %.1f%% of CPU time during the run\n",
              100.0 * static_cast<double>(after.steal - before.steal) /
                  static_cast<double>(
                      std::max<uint64_t>(1, after.total - before.total)));
  for (const std::string& problem : result.problems) {
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
  }
  if (result.phase_invalid) {
    std::printf("# PHASE INVALID: the load generator ran more than 1 ms "
                "late at p99\n");
  }
  std::ostringstream json;
  json << "{\"correct\":" << (result.correct() ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json << (i > 0 ? "," : "") << JsonString(m.name) << ":{\"value\":"
         << FormatNumber(m.value) << ",\"unit\":" << JsonString(m.unit)
         << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  if (!result.correct()) return 1;
  return result.phase_invalid ? 2 : 0;
}

}  // namespace
}  // namespace slade_e2e

int main(int argc, char** argv) {
  try {
    return slade_e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_driver: %s\n", e.what());
    return 3;
  }
}
