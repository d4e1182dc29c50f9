// Spans, the in-process replay of the server's request path, and the
// layer probes the traced runs share.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "e2e.h"
#include "engine/plan_splitter.h"
#include "server/http_parser.h"
#include "server/slade_server.h"
#include "solver/plan_arena.h"

namespace slade_e2e {

using slade::CrowdsourcingTask;
using slade::JsonValue;
using slade::RequesterPlan;
using slade::Result;

// ----------------------------------------------------------- SpanRecorder

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const auto& slot : slots_) {
    for (const Span& span : slot) {
      if (name == span.name) out.push_back(Micros(span.end - span.start));
    }
  }
  return out;
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& root) const {
  // Children of one request run one after another, never overlapping, so
  // the union of their intervals is the sum of their durations.
  std::unordered_map<uint64_t, double> roots;
  std::unordered_map<uint64_t, double> children;
  for (const auto& slot : slots_) {
    for (const Span& span : slot) {
      if (root == span.name) {
        roots[span.request] += Micros(span.end - span.start);
      } else if (root == span.parent) {
        children[span.request] += Micros(span.end - span.start);
      }
    }
  }
  std::vector<double> out;
  out.reserve(roots.size());
  for (const auto& [request, total] : roots) {
    out.push_back(total - children[request]);
  }
  return out;
}

size_t SpanRecorder::size() const {
  size_t n = 0;
  for (const auto& slot : slots_) n += slot.size();
  return n;
}

void SpanRecorder::WriteJson(const std::string& path,
                             const std::string& workload,
                             uint64_t seed) const {
  // Whole requests only: every stride-th request id keeps all its spans,
  // which bounds the file near kMaxSpans.
  constexpr size_t kMaxSpans = 100'000;
  const uint64_t stride =
      std::max<uint64_t>(1, (size() + kMaxSpans - 1) / kMaxSpans);
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& slot : slots_) {
    for (const Span& span : slot) origin = std::min(origin, span.start);
  }
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"time_unit\":\"us\",\"request_stride\":" << stride
      << ",\"spans\":[";
  bool first = true;
  char buf[256];
  for (size_t thread = 0; thread < slots_.size(); ++thread) {
    for (const Span& span : slots_[thread]) {
      if (span.request % stride != 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"parent\":\"%s\",\"request\":%llu,"
                    "\"thread\":%zu,\"start\":%.3f,\"end\":%.3f}",
                    first ? "" : ",", span.name, span.parent,
                    static_cast<unsigned long long>(span.request), thread,
                    Micros(span.start - origin), Micros(span.end - origin));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw Fatal("cannot write " + path);
}

// ---------------------------------------------------------- TracedHandler

bool TracedHandler::ParseAndDecode(size_t slot, uint64_t request,
                                   const std::string& bytes, Decoded* out) {
  const auto parse_start = Clock::now();
  slade::HttpRequestParser parser;
  if (parser.Feed(bytes.data(), bytes.size()) !=
      slade::HttpParseState::kComplete) {
    return false;
  }
  slade::HttpRequest http = parser.ConsumeRequest(nullptr);
  const auto decode_start = Clock::now();
  recorder_->Record(slot, {"parse", "request", request, parse_start,
                           decode_start});

  Result<JsonValue> doc = JsonValue::Parse(http.body);
  if (!doc.ok()) return false;
  const JsonValue* requester = doc->Find("requester");
  const JsonValue* tasks = doc->Find("tasks");
  if (requester == nullptr || !requester->is_string() || tasks == nullptr ||
      !tasks->is_array()) {
    return false;
  }
  out->requester = requester->string;
  if (const JsonValue* id = doc->Find("submission_id")) {
    out->submission_id = id->string;
  }
  if (const JsonValue* platform = doc->Find("platform")) {
    out->platform_hint = platform->string;
  }
  out->tasks.reserve(tasks->items.size());
  for (const JsonValue& task_json : tasks->items) {
    std::vector<double> thresholds;
    thresholds.reserve(task_json.items.size());
    for (const JsonValue& t : task_json.items) thresholds.push_back(t.number);
    Result<CrowdsourcingTask> task =
        CrowdsourcingTask::FromThresholds(std::move(thresholds));
    if (!task.ok()) return false;
    out->tasks.push_back(std::move(*task));
  }
  recorder_->Record(slot, {"decode", "request", request, decode_start,
                           Clock::now()});
  return true;
}

std::future<Result<RequesterPlan>> TracedHandler::Submit(size_t slot,
                                                         uint64_t request,
                                                         Decoded decoded) {
  const auto start = Clock::now();
  auto future = engine_->Submit(
      std::move(decoded.requester), std::move(decoded.tasks),
      std::move(decoded.submission_id), std::move(decoded.platform_hint));
  recorder_->Record(slot, {"submit", "request", request, start, Clock::now()});
  return future;
}

std::string TracedHandler::Encode(size_t slot, uint64_t request,
                                  const Result<RequesterPlan>& plan,
                                  Reply* reply) {
  const auto start = Clock::now();
  std::string response;
  if (!plan.ok()) {
    reply->status = 500;
  } else {
    slade::JsonWriter w;
    w.BeginObject();
    w.Key("requester");
    w.Value(plan->requester_id);
    if (!plan->submission_id.empty()) {
      w.Key("submission_id");
      w.Value(plan->submission_id);
    }
    w.Key("duplicate");
    w.Value(plan->duplicate);
    w.Key("num_tasks");
    w.Value(static_cast<uint64_t>(plan->num_tasks()));
    w.Key("num_atomic_tasks");
    w.Value(static_cast<uint64_t>(plan->num_atomic_tasks()));
    w.Key("cost");
    w.Value(plan->cost);
    w.Key("bins_posted");
    w.Value(plan->bins_posted);
    w.Key("flush_id");
    w.Value(plan->flush_id);
    w.Key("latency_seconds");
    w.Value(plan->latency_seconds);
    if (!plan->platform.empty()) {
      w.Key("platform");
      w.Value(plan->platform);
      w.Key("epoch");
      w.Value(plan->epoch);
    }
    w.EndObject();
    const std::string body = std::move(w).Take();
    response = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
               "Content-Length: " +
               std::to_string(body.size()) + "\r\n\r\n" + body;
    reply->status = 200;
    reply->cost = plan->cost;
    reply->duplicate = plan->duplicate;
    reply->platform = plan->platform;
    reply->flush_id = plan->flush_id;
  }
  recorder_->Record(slot, {"encode", "request", request, start, Clock::now()});
  return response;
}

Reply TracedHandler::Handle(size_t slot, uint64_t request,
                            const std::string& bytes) {
  const auto start = Clock::now();
  Reply reply;
  Decoded decoded;
  if (!ParseAndDecode(slot, request, bytes, &decoded)) {
    reply.status = 400;
    return reply;
  }
  auto future = Submit(slot, request, std::move(decoded));
  const auto wait_start = Clock::now();
  Result<RequesterPlan> plan = future.get();
  recorder_->Record(slot, {"wait", "request", request, wait_start,
                           Clock::now()});
  Encode(slot, request, plan, &reply);
  recorder_->Record(slot, {"request", "", request, start, Clock::now()});
  return reply;
}

// --------------------------------------------------------- layer metrics

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void AddStreamingLayerMetrics(const slade::StreamingStats& before,
                              const slade::StreamingStats& after,
                              double wall_seconds, RunResult* result) {
  const double flushes = static_cast<double>(after.flushes - before.flushes);
  result->Add("streaming.batch_submissions_mean",
              Ratio(static_cast<double>(after.submissions - before.submissions),
                    flushes),
              "count");
  result->Add("streaming.deadline_flush_frac",
              Ratio(static_cast<double>(after.flushes_by_deadline -
                                        before.flushes_by_deadline),
                    flushes),
              "frac");
  result->Add("streaming.queue_peak_atomic",
              static_cast<double>(after.peak_queue_atomic_tasks), "count");
  result->Add("streaming.solve_busy_frac",
              Ratio(after.solve_seconds - before.solve_seconds, wall_seconds),
              "frac");
}

void AddCacheLayerMetrics(const slade::CacheStats& cache,
                          double solve_seconds, RunResult* result) {
  result->Add("opq_cache.hit_rate", cache.hit_rate(), "frac");
  result->Add("opq_cache.entries_end", static_cast<double>(cache.entries),
              "count");
  result->Add("opq_cache.build_share",
              Ratio(cache.build_seconds, solve_seconds), "frac");
  result->Add("opq_builder.build_us_mean",
              Ratio(cache.build_seconds * 1e6,
                    static_cast<double>(cache.builds)),
              "us");
  result->Add("opq_builder.nodes_per_build",
              Ratio(static_cast<double>(cache.build_stats.nodes_visited),
                    static_cast<double>(cache.builds)),
              "count");
}

void AddFlushReexecMetrics(
    std::vector<FlushMember> members,
    const std::function<Submission(uint64_t)>& make,
    const slade::EngineOptions& options,
    const std::map<std::string, slade::BinProfile>& profiles,
    SpanRecorder* recorder, RunResult* result) {
  // Enough flushes for stable medians; the first ones include the cold
  // OPQ builds, as they did in the engine.
  constexpr size_t kMaxFlushes = 2000;
  std::stable_sort(members.begin(), members.end(),
                   [](const FlushMember& a, const FlushMember& b) {
                     return a.flush_id < b.flush_id;
                   });
  slade::DecompositionEngine engine(options);
  const slade::PlanArenaPoolCounters pool_before = slade::PlanArenaPoolStats();
  std::vector<double> solve_ms, split_ms;
  double shards = 0.0;
  size_t begin = 0;
  while (begin < members.size() && solve_ms.size() < kMaxFlushes) {
    size_t end = begin;
    while (end < members.size() &&
           members[end].flush_id == members[begin].flush_id) {
      ++end;
    }
    std::map<std::string, std::vector<uint64_t>> by_platform;
    for (size_t i = begin; i < end; ++i) {
      by_platform[members[i].platform].push_back(members[i].index);
    }
    for (const auto& [platform, indices] : by_platform) {
      const slade::BinProfile& profile = profiles.at(platform);
      std::vector<CrowdsourcingTask> tasks;
      std::vector<slade::RequesterSpan> spans;
      for (uint64_t index : indices) {
        Submission s = make(index);
        spans.push_back({s.requester, tasks.size(), s.tasks.size()});
        for (CrowdsourcingTask& t : s.tasks) tasks.push_back(std::move(t));
      }
      const uint64_t id = members[begin].flush_id;
      const auto t0 = Clock::now();
      auto report = engine.SolveBatch(tasks, profile);
      const auto t1 = Clock::now();
      if (!report.ok()) throw Fatal(report.status().ToString());
      auto slices = slade::PlanSplitter::SplitBySpans(*report, profile, spans);
      const auto t2 = Clock::now();
      if (!slices.ok()) throw Fatal(slices.status().ToString());
      recorder->Record(0, {"solve", "", id, t0, t1});
      recorder->Record(0, {"split", "", id, t1, t2});
      solve_ms.push_back(Millis(t1 - t0));
      split_ms.push_back(Millis(t2 - t1));
      shards += static_cast<double>(report->shards.size());
    }
    begin = end;
  }
  const slade::PlanArenaPoolCounters pool_after = slade::PlanArenaPoolStats();
  const double hits =
      static_cast<double>(pool_after.reuse_hits - pool_before.reuse_hits);
  const double misses =
      static_cast<double>(pool_after.reuse_misses - pool_before.reuse_misses);
  result->Add("decomposition.solve_ms_p50", Quantile(solve_ms, 0.5), "ms");
  result->Add("decomposition.shards_per_solve",
              Ratio(shards, static_cast<double>(solve_ms.size())), "count");
  result->Add("plan_splitter.split_ms_p50", Quantile(split_ms, 0.5), "ms");
  result->Add("plan_arena.peak_mb",
              static_cast<double>(engine.plan_arena_counters().peak_bytes) /
                  (1 << 20),
              "MB");
  result->Add("plan_arena.pool_hit_rate", Ratio(hits, hits + misses), "frac");
}

double RouteProbeUsP50(const std::vector<Submission>& submissions) {
  slade::ProfileRegistry registry;
  if (!registry.Register("a", Jelly10()).ok() ||
      !registry.Register("b", Smic8()).ok()) {
    throw Fatal("route probe: register failed");
  }
  std::vector<double> us;
  us.reserve(submissions.size());
  for (const Submission& s : submissions) {
    const auto start = Clock::now();
    auto routed = registry.Route(s.requester, s.tasks,
                                 slade::RoutingPolicy::kStickyRequester,
                                 s.platform_hint);
    us.push_back(Micros(Clock::now() - start));
    if (!routed.ok()) throw Fatal("route probe: " + routed.status().ToString());
  }
  return Quantile(std::move(us), 0.5);
}

double TenantShareError(const slade::BinProfile& profile,
                        slade::StreamingOptions options,
                        const std::vector<std::string>& tenants) {
  constexpr size_t kBacklog = 3000;  // submissions per tenant
  constexpr size_t kAtomic = 20;     // atomic tasks per submission
  // Shares are read over the first quarter of the delivered backlog:
  // every tenant is still backlogged there, and it spans several DRR
  // rounds, so a partial last round moves a share by a few percent.
  constexpr double kWindowShare = 0.25;
  options.registry = nullptr;
  options.durability = nullptr;
  const auto task = CrowdsourcingTask::Homogeneous(kAtomic, 0.9);
  std::vector<std::pair<std::string, uint64_t>> delivered;  // tenant, flush
  for (size_t blocker_atomic = size_t{1} << 21;; blocker_atomic *= 2) {
    slade::StreamingEngine engine(profile, options);
    // The blocker occupies the solver while every backlog is queued, so
    // the first fair flush already sees all tenants.
    auto blocker = CrowdsourcingTask::Homogeneous(blocker_atomic, 0.9);
    auto blocked = engine.Submit("blocker", {*blocker});
    std::vector<std::pair<std::string, std::future<Result<RequesterPlan>>>>
        futures;
    for (size_t round = 0; round < kBacklog; ++round) {
      for (const std::string& tenant : tenants) {
        futures.emplace_back(tenant, engine.Submit(tenant, {*task}));
      }
    }
    const bool queued_in_time = blocked.wait_for(std::chrono::seconds(0)) !=
                                std::future_status::ready;
    delivered.clear();
    for (auto& [tenant, future] : futures) {
      Result<RequesterPlan> plan = future.get();
      if (!plan.ok()) {
        throw Fatal("fairness probe: " + plan.status().ToString());
      }
      delivered.emplace_back(tenant, plan->flush_id);
    }
    if (queued_in_time) break;
    if (blocker_atomic >= (size_t{1} << 23)) {
      throw Fatal("fairness probe: backlog never queued behind the blocker");
    }
  }
  std::stable_sort(
      delivered.begin(), delivered.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const size_t window_items = static_cast<size_t>(
      kWindowShare * static_cast<double>(delivered.size()));
  const uint64_t window_end = delivered[window_items].second;
  std::map<std::string, double> share;
  double total = 0.0;
  for (const auto& [tenant, flush] : delivered) {
    if (flush > window_end) break;
    share[tenant] += kAtomic;
    total += kAtomic;
  }
  auto weight_of = [&](const std::string& tenant) {
    const auto it = options.fairness.weights.find(tenant);
    return static_cast<double>(it == options.fairness.weights.end()
                                   ? options.fairness.default_weight
                                   : it->second);
  };
  double weight_total = 0.0;
  for (const std::string& tenant : tenants) weight_total += weight_of(tenant);
  double worst = 0.0;
  for (const std::string& tenant : tenants) {
    worst = std::max(worst, std::abs(Ratio(share[tenant], total) -
                                     weight_of(tenant) / weight_total));
  }
  return worst;
}

void AddWireProbeMetrics(
    const std::function<std::unique_ptr<slade::StreamingEngine>()>&
        make_engine,
    const std::vector<std::string>& requests, RunResult* result) {
  constexpr size_t kConnections = 4;
  std::vector<double> http_us(requests.size());
  slade::ServerStats server_stats;
  {
    auto engine = make_engine();
    slade::ServerOptions options;
    options.num_workers = kConnections;
    slade::SladeServer server(engine.get(), options);
    const slade::Status started = server.Start();
    if (!started.ok()) throw Fatal("wire probe: " + started.ToString());
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failed{0};
    RunOnThreads(kConnections, [&](size_t) {
      HttpClient client(server.port());
      std::string body;
      for (size_t k = next.fetch_add(1); k < requests.size();
           k = next.fetch_add(1)) {
        const auto start = Clock::now();
        if (client.RoundTrip(requests[k], &body) != 200) failed += 1;
        http_us[k] = Micros(Clock::now() - start);
      }
    });
    server.Shutdown();
    server_stats = server.stats();
    result->attempted += requests.size();
    result->failed += failed.load();
  }
  SpanRecorder recorder(kConnections, 6 * requests.size());
  {
    auto engine = make_engine();
    TracedHandler handler(engine.get(), &recorder);
    std::atomic<size_t> next{0};
    RunOnThreads(kConnections, [&](size_t c) {
      for (size_t k = next.fetch_add(1); k < requests.size();
           k = next.fetch_add(1)) {
        handler.Handle(c, k, requests[k]);
      }
    });
  }
  const double requests_served =
      static_cast<double>(std::max<uint64_t>(1, server_stats.requests));
  result->Add("server.wire_us_p50",
              Quantile(http_us, 0.5) -
                  Quantile(recorder.DurationsUs("request"), 0.5),
              "us");
  result->Add("server.bytes_in_per_req",
              static_cast<double>(server_stats.bytes_in) / requests_served,
              "bytes");
  result->Add("server.bytes_out_per_req",
              static_cast<double>(server_stats.bytes_out) / requests_served,
              "bytes");
}

}  // namespace slade_e2e
