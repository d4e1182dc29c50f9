// Copyright (c) the SLADE reproduction authors.
// End-to-end benchmark driver: declarations shared by its translation
// units.
//
// The driver is one process that generates every input from a seed,
// drives the program (a `slade_cli serve` child over loopback HTTP, or the
// engines in process), checks every answer against an independent
// reference solve, and prints one JSON result line. See README.md for the
// workloads, the metrics and what each layer metric is predicted to move.

#ifndef SLADE_BENCH_E2E_E2E_H_
#define SLADE_BENCH_E2E_E2E_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "engine/decomposition_engine.h"
#include "engine/profile_registry.h"
#include "engine/streaming_engine.h"
#include "server/json.h"

namespace slade_e2e {

using Clock = std::chrono::steady_clock;

/// Load-generator threads (the calling thread included) and connections:
/// the benchmark box has 4 cores and the driver never uses more.
constexpr size_t kMaxLoadThreads = 4;

/// A setup or protocol error that makes the run meaningless. Wrong
/// answers are not thrown: they are counted in RunResult::failed.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) { return Seconds(d) * 1e3; }
inline double Micros(Clock::duration d) { return Seconds(d) * 1e6; }

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Run-level statistics are taken over consecutive windows of a phase, and
/// from the run's calmer windows. On a shared virtual machine the host's
/// stalls (1-10 ms, about once a second per thread, even with no steal
/// reported) only ever add time, and each hits the windows it falls in,
/// so they move some windows, not the run. A phase shorter than two
/// windows is one window.
///
/// Latency: `values` placed in windows by their `offsets` entry (seconds
/// from phase start); the calmest quarter of the windows, by each
/// window's own q-quantile, pooled; the q-quantile of the pool. Pooling
/// keeps enough samples beyond a p99 that short windows still give one.
double WindowedQuantile(const std::vector<double>& offsets,
                        const std::vector<double>& values, double window,
                        double q);
/// The open loops' latency window, seconds: a 15 s run's 10.5 s open loop
/// has 42, and their calmest quarter, 11 windows, holds ~4,000 requests at
/// serve-durable's 1,500/s (~40 beyond a p99).
constexpr double kLatencyWindow = 0.25;
/// Rates: the upper quartile over the whole windows of [0, duration) of
/// the sum of `weights` whose offsets fall in the window, per second.
double WindowedRate(const std::vector<double>& offsets,
                    const std::vector<double>& weights, double window,
                    double duration);

/// Runs `body(i)` for i in [0, n) on n-1 new threads plus the caller and
/// joins them all; the first exception a body throws is rethrown here.
void RunOnThreads(size_t n, const std::function<void(size_t)>& body);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(pid_t pid = 0);
/// Returns idle plan-arena chunks and free heap pages to the kernel and
/// restarts this process's VmHWM, so an in-process peak covers only what
/// follows.
void ResetPeakRss();
/// Flushes the checkout's filesystem (deleted files included), so no
/// write-back or discard from earlier work lands in a timed phase.
void SyncFilesystem(const std::string& path);

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli_path;  ///< slade_cli binary (serve workloads)
  std::string no_fsync_lib;  ///< no_fsync.cc's library (serve-durable)
  std::string out_dir;   ///< scratch: WAL dirs, profiles, logs, traces
};

/// What one workload run reports: the metrics of its mode plus the
/// correctness tally. Every answer counts in `attempted`; a wrong or
/// missing one in `failed`. Other failed checks land in `problems`.
struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  bool phase_invalid = false;  ///< load-generator lag guard tripped
  std::vector<std::string> notes;  ///< diagnostics printed before the JSON

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what) { problems.push_back(what); }
  void Note(const std::string& what) { notes.push_back(what); }
  bool correct() const { return failed == 0 && problems.empty(); }
};

RunResult RunServePlain(const RunConfig& config);
RunResult RunServeDurable(const RunConfig& config);
RunResult RunStreamFair(const RunConfig& config);
RunResult RunBatchPooled(const RunConfig& config);

/// The bytes of open-loop request `k` of a serve workload, exactly as the
/// load generator sends them (ids and duplicates included).
std::string ServeRequest(bool durable, uint64_t seed, uint64_t k);

// ------------------------------------------------------------------ tapes

/// Which generator a tape draws from (see tape.cc).
enum class Mix {
  /// serve-plain: 8 requesters, 1-3 tasks x 10-30 atomic tasks, every
  /// threshold a continuous N(0.9, 0.03) draw (6 decimals).
  kServe,
  /// serve-durable: kServe plus t4-t7 naming platform "b".
  kServeDurable,
  /// stream-fair: 64 Zipf(1.1) tenants, one threshold per task from
  /// {0.80, 0.85, 0.90, 0.95, 0.99}.
  kStream,
};

struct Submission {
  std::string requester;
  std::vector<slade::CrowdsourcingTask> tasks;
  std::string platform_hint;

  size_t num_atomic() const;
};

/// Submission `k` of tape `stream`: a pure function of its arguments, so
/// the reference solve regenerates exactly what was sent.
Submission MakeSubmission(Mix mix, uint64_t seed, uint64_t stream,
                          uint64_t k);

/// The `POST /v1/submit` request for `submission` (ids and hints included
/// when non-empty). Thresholds print as their shortest exact decimal, so
/// the server parses back the very doubles the reference solved.
std::string RenderSubmitRequest(const Submission& submission,
                                const std::string& submission_id);

/// Poisson arrival offsets (seconds from phase start) at `rate` per second
/// over `seconds`.
std::vector<double> PoissonSchedule(uint64_t seed, uint64_t stream,
                                    double rate, double seconds);

/// The profiles the workloads serve: Jelly |B| = 10 (platform "a" and
/// the single-profile server) and SMIC |B| = 8 (platform "b").
slade::BinProfile Jelly10();
slade::BinProfile Smic8();

/// Reference slice costs: each submission's cost when its tasks are
/// solved by an isolated DecompositionEngine::SolveBatch and cut by
/// PlanSplitter::SplitBySpans. Isolated sharing makes this independent of
/// how the program micro-batched them.
class Oracle {
 public:
  Oracle();
  /// Costs of `make(0..count-1)` under `profile`, solved in chunks.
  std::vector<double> Costs(size_t count,
                            const std::function<Submission(size_t)>& make,
                            const slade::BinProfile& profile);

 private:
  slade::DecompositionEngine engine_;
};

// ---------------------------------------------------------- HTTP, process

/// What the driver reads from a `POST /v1/submit` answer.
struct Reply {
  int status = 0;  ///< 0 = transport failure
  double cost = 0.0;
  bool duplicate = false;
  std::string platform;
  uint64_t flush_id = 0;  ///< in-process replays only
};
Reply ParseReply(int status, const std::string& body);

/// One blocking keep-alive loopback connection.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends `request`, reads one response; returns the status code (0 on a
  /// transport or framing failure, after which the connection is closed).
  int RoundTrip(const std::string& request, std::string* body);
  /// GET `target`; status code, body in `*body`.
  int Get(const std::string& target, std::string* body);

 private:
  bool Connect();
  void Close();

  const uint16_t port_;
  int fd_ = -1;
  std::string residual_;
};

/// A `slade_cli serve` child. Stdout is a pipe (the bound port is read
/// from its "listening on" line); stderr goes to `log_path`. A non-empty
/// `preload` is a shared library the child must load through LD_PRELOAD
/// (checked in its memory map). The destructor kills and reaps a child
/// that is still running.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path, const std::string& preload);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Sends `signal` and reaps the child (SIGKILL after 10 s).
  void Stop(int signal);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Spawns the server and waits for its first 200 from /healthz; returns
/// the process and, in `*setup_seconds`, spawn-to-healthy wall time.
std::unique_ptr<ServerProcess> StartServer(
    const std::vector<std::string>& argv, const std::string& log_path,
    const std::string& preload, double* setup_seconds);

/// GET /v1/stats, parsed.
slade::JsonValue FetchStats(uint16_t port);
/// Numeric member at a dotted path ("engine.flushes"); 0 when absent.
double StatsNumber(const slade::JsonValue& stats, const std::string& path);

/// One answered (or failed) request of a load phase.
struct Sample {
  uint64_t index = 0;       ///< tape index
  Reply reply;
  double latency_ms = 0.0;  ///< from the scheduled send (open loop)
  double lag_ms = -1.0;     ///< generator lateness when it slept until due
  double due_s = 0.0;       ///< due (open) or send (closed) time, phase s
  double end_s = 0.0;       ///< answer time, seconds from phase start
};

/// Open loop: request k is due at start + schedule[k] and goes out on the
/// first of `connections` keep-alive connections that is free; latency
/// runs from the due time, so client-side waiting counts.
std::vector<Sample> RunOpenLoop(uint16_t port,
                                const std::vector<double>& schedule,
                                const std::vector<std::string>& requests,
                                size_t connections);
/// Closed loop: `connections` clients each send their next request as
/// soon as the previous one is answered, for `seconds`. `make_request(k)`
/// renders tape index k (k counts across all connections).
std::vector<Sample> RunClosedLoop(
    uint16_t port, double seconds, size_t connections,
    const std::function<std::string(uint64_t)>& make_request);

/// The per-thread samples of a phase as one list, in tape order.
std::vector<Sample> MergeSamples(std::vector<std::vector<Sample>> parts);

/// Lag summary of a load phase: p99 over the requests whose generator
/// thread slept until their due time.
double LagP99Ms(const std::vector<Sample>& samples);

// ----------------------------------------------------------------- tracing

/// One timed call into a layer. `parent` is empty for a root span; spans
/// of one request share `request`.
struct Span {
  const char* name = "";
  const char* parent = "";
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. Each thread records into its own slot (no lock
/// on the hot path); WriteJson dumps everything when the run ends.
class SpanRecorder {
 public:
  /// `per_slot` spans are reserved in each slot: regrowing a slot of
  /// millions of spans mid-phase would stall the recording thread.
  SpanRecorder(size_t slots, size_t per_slot) : slots_(slots) {
    for (std::vector<Span>& slot : slots_) slot.reserve(per_slot);
  }
  void Record(size_t slot, const Span& span) { slots_[slot].push_back(span); }
  /// Durations of every span named `name`, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Per-request self time of the root spans named `root`: its duration
  /// minus the union of its children's, in microseconds.
  std::vector<double> SelfTimesUs(const std::string& root) const;
  size_t size() const;
  void WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  std::vector<std::vector<Span>> slots_;
};

/// The request path of SladeServer::HandleSubmit, replayed in process
/// through the same public calls in the same order -- parse
/// (HttpRequestParser), decode (JsonValue::Parse +
/// CrowdsourcingTask::FromThresholds), submit (StreamingEngine::Submit),
/// wait (future::get), encode (JsonWriter + status line) -- with one span
/// around each call.
class TracedHandler {
 public:
  TracedHandler(slade::StreamingEngine* engine, SpanRecorder* recorder)
      : engine_(engine), recorder_(recorder) {}

  struct Decoded {
    std::string requester;
    std::string submission_id;
    std::string platform_hint;
    std::vector<slade::CrowdsourcingTask> tasks;
  };
  /// parse + decode spans; false on a request the server would reject.
  bool ParseAndDecode(size_t slot, uint64_t request,
                      const std::string& bytes, Decoded* out);
  /// submit span.
  std::future<slade::Result<slade::RequesterPlan>> Submit(size_t slot,
                                                          uint64_t request,
                                                          Decoded decoded);
  /// encode span: renders the response exactly as HandleSubmit does.
  std::string Encode(size_t slot, uint64_t request,
                     const slade::Result<slade::RequesterPlan>& plan,
                     Reply* reply);
  /// The whole chain on one thread, under a root "request" span.
  Reply Handle(size_t slot, uint64_t request, const std::string& bytes);

 private:
  slade::StreamingEngine* engine_;
  SpanRecorder* recorder_;
};

// ---- layer counters and probes shared by the workloads (trace.cc)

/// Adds the streaming.* counter metrics of one traced replay window, from
/// the engine's stats() at its start and end.
void AddStreamingLayerMetrics(const slade::StreamingStats& before,
                              const slade::StreamingStats& after,
                              double wall_seconds, RunResult* result);
/// Adds opq_cache.* and opq_builder.* from a cache's lifetime counters;
/// `solve_seconds` is the solve time the builds were part of.
void AddCacheLayerMetrics(const slade::CacheStats& cache,
                          double solve_seconds, RunResult* result);

/// Re-executes micro-batches the engine flushed -- tape submissions
/// grouped by the flush id (and platform) on their RequesterPlans, in
/// flush order on a fresh engine -- with SolveBatch and SplitBySpans, and
/// adds decomposition.*, plan_splitter.* and plan_arena.* metrics. The
/// micro-batch internals are not observable from outside the engine;
/// these are the same calls on the same batches.
struct FlushMember {
  uint64_t flush_id = 0;
  std::string platform;  ///< key into `profiles`; empty = single profile
  uint64_t index = 0;    ///< tape index, regenerated through `make`
};
void AddFlushReexecMetrics(
    std::vector<FlushMember> members,
    const std::function<Submission(uint64_t)>& make,
    const slade::EngineOptions& options,
    const std::map<std::string, slade::BinProfile>& profiles,
    SpanRecorder* recorder, RunResult* result);

/// registry.route_us_p50: ProfileRegistry::Route over `submissions` on a
/// registry serving Jelly10 as "a" and Smic8 as "b" under sticky routing
/// (the serve-durable configuration).
double RouteProbeUsP50(const std::vector<Submission>& submissions);

/// streaming.tenant_share_err: a weighted-DRR saturation probe. A large
/// blocking submission occupies the solver while `tenants` each queue
/// the same backlog; over the flushes before the first tenant drains,
/// the largest gap between a tenant's delivered share of atomic tasks
/// and its weight share.
double TenantShareError(const slade::BinProfile& profile,
                        slade::StreamingOptions options,
                        const std::vector<std::string>& tenants);

/// server.wire_us_p50 and bytes per request for workloads without an HTTP
/// path: an in-process SladeServer over an engine built by `make_engine`
/// answers `requests` on 4 loopback connections; the same requests then
/// go through TracedHandler on 4 threads over a fresh engine. Adds
/// server.wire_us_p50 (HTTP p50 minus handler p50) and
/// server.bytes_{in,out}_per_req.
void AddWireProbeMetrics(
    const std::function<std::unique_ptr<slade::StreamingEngine>()>&
        make_engine,
    const std::vector<std::string>& requests, RunResult* result);

}  // namespace slade_e2e

#endif  // SLADE_BENCH_E2E_E2E_H_
