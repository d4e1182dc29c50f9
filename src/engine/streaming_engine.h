// Copyright (c) the SLADE reproduction authors.
// Streaming admission on top of the batch decomposition engine.
//
// The batch engine answers one workload at a time; a long-lived platform
// receives submissions continuously, from many requesters at once. The
// streaming engine sits in front of it: Submit() enqueues a requester's
// crowdsourcing tasks and returns a future immediately; an admission worker
// accumulates submissions into micro-batches, flushes a micro-batch when it
// grows big enough or its oldest submission has waited long enough, solves
// it with one DecompositionEngine::SolveBatch call (the OPQ cache stays
// warm across every flush of the engine's lifetime), and cuts the merged
// plan back into per-requester slices with PlanSplitter -- each future
// resolves to the slice covering exactly its submission's tasks.
//
// With StreamingOptions::sharing == BatchSharing::kIsolated (the default)
// a submission's plan is byte-for-byte what the paper's OPQ-Extended
// solver would produce for it alone: micro-batching changes latency and
// throughput, never the answer. kPooled lets concurrent submissions tile
// into shared bins for a cheaper global plan, at the price of slices that
// overlap in bins (see plan_splitter.h on cost attribution).
//
// Admission is resource-governed: StreamingOptions::resources bounds the
// pending queue (atomic tasks and estimated bytes ahead of the solver) and
// picks what happens when a submission does not fit -- block until room,
// reject it, or shed the oldest pending submission (both failure modes are
// clean ResourceExhausted futures, never hangs). A submission that cannot
// be admitted also kicks the worker to flush, so room opens as fast as the
// solver can drain. Backpressure decides *which* submissions are answered,
// never *what* the answer is: under kIsolated every admitted submission's
// plan is still the standalone OPQ-Extended plan.
//
// Every micro-batch is cut by one deficit-round-robin scheduler over
// per-tenant queues, bounded by the flush caps. StreamingOptions::fairness
// makes each requester its own tenant, with per-tenant pending quotas and
// weights, so one heavy requester cannot starve many small ones (see
// FairnessOptions); with fairness off every submission shares one tenant
// queue and batching is FIFO.

#ifndef SLADE_ENGINE_STREAMING_ENGINE_H_
#define SLADE_ENGINE_STREAMING_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "durability/hooks.h"
#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "engine/profile_registry.h"
#include "engine/resource_governor.h"

namespace slade {

/// \brief Multi-tenant fairness: per-tenant quotas and a weighted-fair
/// (deficit round-robin) flush scheduler.
///
/// Every micro-batch is assembled by deficit round-robin over tenant
/// queues: each tenant visit earns `quantum_atomic_tasks * weight` of
/// atomic-task credit once, and whole submissions are taken FIFO from the
/// tenant's queue while credit lasts, up to the flush caps per micro-batch.
/// A visit cut short by a full batch resumes in the next batch on the
/// credit it has left, without a second grant. With fairness on each
/// requester id is its own tenant, so one tenant with a huge backlog cannot
/// push other tenants' work behind all of its own: every flush interleaves
/// tenants in proportion to their weights. With fairness off (the default)
/// every submission joins one shared tenant queue -- FIFO batching, still
/// cut at the flush caps -- and `weights` and the tenant quotas are
/// ignored.
///
/// Because placement under BatchSharing::kIsolated is independent of how
/// submissions are micro-batched, fairness changes *when* a submission is
/// answered, never *what* its plan is: every slice stays placement-
/// identical to the fairness-off (and standalone OPQ-Extended) plan.
///
/// Per-tenant pending quotas bound how much one tenant may hold of the
/// shared queue. A submission over its tenant's quota is rejected
/// (ResourceExhausted) regardless of the global backpressure policy --
/// only the offending tenant is touched, with one exception mirroring the
/// global empty-queue rule: a tenant with an empty queue always admits one
/// submission, so a quota smaller than one submission cannot starve it.
///
/// Tenant state (counters + an idle queue shell) persists for the
/// engine's lifetime; with unbounded tenant cardinality prefer a
/// front-end that maps users onto a bounded tenant set.
struct FairnessOptions {
  bool enabled = false;
  /// Atomic-task credit a tenant earns per scheduler visit; floored at 1.
  uint64_t quantum_atomic_tasks = 1024;
  /// Weight of tenants absent from `weights`; floored at 1.
  uint64_t default_weight = 1;
  /// Per-tenant weight overrides (0 entries are treated as 1).
  std::map<std::string, uint64_t> weights;
  /// Per-tenant pending caps (0 = unbounded).
  uint64_t tenant_max_pending_atomic_tasks = 0;
  uint64_t tenant_max_pending_bytes = 0;
};

/// \brief Per-tenant admission / billing counters, readable at any time
/// via tenant_stats() when fairness is enabled.
struct TenantStats {
  std::string tenant;
  uint64_t weight = 1;
  uint64_t submissions = 0;     ///< admitted (sheds counted; rejects not)
  uint64_t tasks = 0;
  uint64_t atomic_tasks = 0;
  uint64_t delivered = 0;       ///< futures resolved with a plan slice
  uint64_t flushes = 0;         ///< micro-batches containing this tenant
  uint64_t rejected_quota = 0;  ///< rejected by the per-tenant quota
  uint64_t shed = 0;            ///< evicted by kShedOldest backpressure
  /// Sum of delivered slice costs: what the tenant is billed.
  double billed_cost = 0.0;
  /// The tenant's proportional share of the platform's batch costs. Under
  /// kIsolated sharing this equals billed_cost; under kPooled it is lower
  /// and the difference is the sharing discount.
  double platform_cost = 0.0;
  // --- snapshot of the tenant's pending queue ---
  uint64_t pending_submissions = 0;
  uint64_t pending_atomic_tasks = 0;
  uint64_t pending_bytes = 0;
};

/// \brief Micro-batch admission policy. Both size caps are floored at 1 by
/// the engine (0 would mean "flush before anything is pending").
struct StreamingOptions {
  /// Flush when the pending queue holds at least this many atomic tasks.
  /// Also the per-batch cap: no micro-batch takes more, except a lone
  /// submission larger than the cap, which is solved alone...
  size_t max_pending_atomic_tasks = 4096;
  /// ...or at least this many submissions, also the per-batch cap (work
  /// beyond either cap stays queued and flushes right after)...
  size_t max_pending_submissions = 256;
  /// ...or when the oldest pending submission has waited this long.
  double max_delay_seconds = 0.05;
  /// Bin-sharing policy of the underlying batch solves. kIsolated keeps
  /// every submission's plan identical to a standalone OPQ-Extended solve;
  /// kPooled shares bins across the micro-batch for a cheaper total.
  BatchSharing sharing = BatchSharing::kIsolated;
  /// Worker threads of the wrapped DecompositionEngine (0 = default).
  uint32_t num_threads = 0;
  /// Passed through to OPQ builds on cache misses.
  uint64_t opq_node_budget = 50'000'000;
  /// Resource governance: queue_* + backpressure bound admission (see the
  /// file comment); cache_* bound the wrapped engine's OPQ cache. Defaults
  /// are unbounded, reproducing the ungoverned behavior exactly.
  ResourceOptions resources;
  /// Multi-tenant quotas and weighted-fair flush scheduling (see
  /// FairnessOptions). Disabled by default: one shared FIFO tenant queue.
  FairnessOptions fairness;
  /// Durability seam (see durability/hooks.h): when set, every admission
  /// is journaled durably before Submit hands out its future, outcomes
  /// are journaled (one durability barrier per micro-batch) before any
  /// future resolves, and duplicate submission ids are answered from the
  /// journal instead of re-solved. Non-owning; must outlive the engine.
  /// nullptr = the previous in-memory-only behavior (duplicate ids are
  /// then only detected while the original is still in flight).
  DurabilityHooks* durability = nullptr;
  /// Multi-platform seam (see engine/profile_registry.h): when set, every
  /// submission is routed to a registered platform under `routing` and
  /// solved against that platform's admission-epoch profile snapshot --
  /// the constructor profile is unused on this path. The engine
  /// subscribes to epoch changes and evicts exactly the retired epoch's
  /// OPQ cache entries. Non-owning; must outlive the engine. nullptr =
  /// single-profile serving: every submission is solved against the
  /// constructor profile, with unsalted cache keys and no platform or
  /// epoch echoed on its slice.
  ProfileRegistry* registry = nullptr;
  /// Routing policy applied when `registry` is set.
  RoutingPolicy routing = RoutingPolicy::kCheapest;
};

/// \brief Admission counters, readable at any time via stats().
struct StreamingStats {
  uint64_t submissions = 0;  ///< admitted (sheds counted; rejects not)
  uint64_t tasks = 0;
  uint64_t atomic_tasks = 0;
  uint64_t flushes = 0;
  uint64_t flushes_by_size = 0;      ///< atomic-task or submission cap hit
  uint64_t flushes_by_deadline = 0;  ///< oldest submission timed out
  uint64_t flushes_by_drain = 0;     ///< Flush()/Drain()/shutdown
  /// Cumulative SolveBatch wall time and solved cost across all flushes.
  double solve_seconds = 0.0;
  double total_cost = 0.0;

  // --- backpressure (see StreamingOptions::resources) ---
  uint64_t rejected = 0;  ///< Submit/TrySubmit failed fast: queue full
  uint64_t shed = 0;      ///< admitted, then evicted by kShedOldest
  uint64_t blocked = 0;   ///< Submit calls that had to wait for room
  /// Rejected by a per-tenant quota (fairness enabled; not in `rejected`).
  uint64_t rejected_tenant_quota = 0;
  /// Submissions answered from the journal because their id had already
  /// completed (no re-solve, no re-bill).
  uint64_t duplicate_hits = 0;
  /// Queue occupancy at the stats() snapshot (pending, not yet flushed).
  uint64_t queue_submissions = 0;
  uint64_t queue_atomic_tasks = 0;
  uint64_t queue_bytes = 0;
  /// High-water marks of the pending queue across the engine's lifetime.
  uint64_t peak_queue_atomic_tasks = 0;
  uint64_t peak_queue_bytes = 0;
};

/// \brief Long-lived streaming front end over DecompositionEngine.
///
/// Thread-safe: any number of threads may call Submit/TrySubmit/Flush/
/// Drain concurrently. Micro-batches are solved one at a time, in
/// admission order, on a dedicated worker thread; the solve itself
/// parallelizes across shards on the wrapped engine's pool. The destructor
/// drains: every future obtained from Submit() is fulfilled before the
/// engine goes away.
class StreamingEngine {
 public:
  /// Without StreamingOptions::registry every submission is decomposed
  /// against `profile`, held as one unnamed, unsalted snapshot for the
  /// engine's lifetime, and the OPQ cache warms up across all of them.
  /// With a registry each submission is instead solved against the routed
  /// platform's admission-epoch snapshot, and `profile` goes unused.
  explicit StreamingEngine(BinProfile profile, StreamingOptions options = {});
  ~StreamingEngine();

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  /// Admits one submission (one requester, one or more crowdsourcing
  /// tasks) and returns immediately -- except under BackpressurePolicy::
  /// kBlock with a full queue, where it waits for room. The future
  /// resolves, after the owning micro-batch is solved, to the requester's
  /// slice of the merged plan -- local ids ordered task by task as given
  /// here, with flush_id and latency_seconds filled in. An empty `tasks`
  /// fails the future with InvalidArgument without touching the pending
  /// batch; a queue-full rejection (kReject) or a later kShedOldest
  /// eviction fails it with ResourceExhausted.
  ///
  /// `submission_id` makes the submission idempotent: a duplicate of an
  /// id that already completed resolves immediately to the original
  /// outcome (RequesterPlan::duplicate set, nothing re-solved or
  /// re-billed); a duplicate of an id still in flight fails with
  /// AlreadyExists. With durability on (StreamingOptions::durability) an
  /// empty id is replaced by a generated one, the admission is journaled
  /// durably before this returns, and idempotency survives restarts;
  /// without it, ids are only tracked while in flight.
  ///
  /// `platform_hint` (registry mode only) names the serving platform
  /// explicitly -- the HTTP `platform` field; it overrides the routing
  /// policy and fails the future with NotFound when that platform is not
  /// registered. The serving (platform, epoch) is pinned at admission and
  /// echoed on the delivered RequesterPlan.
  std::future<Result<RequesterPlan>> Submit(
      std::string requester_id, std::vector<CrowdsourcingTask> tasks,
      std::string submission_id = {}, std::string platform_hint = {});

  /// Non-blocking admission: returns ResourceExhausted instead of a future
  /// when the queue has no room, regardless of the configured backpressure
  /// policy (it never waits and never sheds), and AlreadyExists for a
  /// duplicate of an in-flight id. On success the returned future behaves
  /// exactly like Submit()'s.
  Result<std::future<Result<RequesterPlan>>> TrySubmit(
      std::string requester_id, std::vector<CrowdsourcingTask> tasks,
      std::string submission_id = {}, std::string platform_hint = {});

  /// Re-admits submissions recovered from the journal on startup, in the
  /// given order (their admission order at recovery time, preserving the
  /// tenant interleaving the fairness scheduler had produced). Uses
  /// kBlock semantics so recovered work cannot be dropped by
  /// backpressure; ids whose outcome is already known resolve through
  /// the duplicate path without a re-solve. The original clients are
  /// gone, so the futures are discarded — the plans are still solved,
  /// journaled and billed. Returns the number re-admitted.
  size_t ReplayRecovered(std::vector<RecoveredSubmission> recovered);

  /// Asks the worker to flush whatever is pending, without waiting for
  /// the solve. No-op when nothing is pending.
  void Flush();

  /// Flushes and blocks until every submission admitted before this call
  /// has its future fulfilled.
  void Drain();

  StreamingStats stats() const;
  /// Per-tenant counters in tenant-id order; empty when fairness is
  /// disabled (every submission then shares one queue that belongs to no
  /// requester).
  std::vector<TenantStats> tenant_stats() const;
  const OpqCache& cache() const { return engine_.cache(); }
  const StreamingOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string requester;
    std::string submission_id;  ///< idempotency id; empty = anonymous
    std::vector<CrowdsourcingTask> tasks;
    size_t num_atomic = 0;
    uint64_t bytes = 0;  ///< estimated queue charge for this submission
    uint64_t seq = 0;    ///< global admission order (sheds and ages)
    std::chrono::steady_clock::time_point admitted;
    std::promise<Result<RequesterPlan>> promise;
    /// The serving profile pinned at admission: the routed (platform,
    /// epoch) in registry mode, the engine's unnamed snapshot otherwise.
    /// The shared profile keeps this submission solving under its
    /// admission epoch even if a promotion lands before its flush.
    PlatformSnapshot serving;
  };

  /// One tenant's pending queue and lifetime counters.
  struct TenantState {
    std::deque<Pending> queue;
    uint64_t deficit = 0;  ///< unspent DRR credit, in atomic tasks
    /// This visit's quantum is already granted (a visit cut short by a
    /// full batch resumes in the next one without a second grant).
    bool credited = false;
    bool in_ring = false;
    uint64_t pending_atomic = 0;
    uint64_t pending_bytes = 0;
    TenantStats counters;  ///< pending_* snapshot fields unused here
  };

  enum class FlushReason { kSize, kDeadline, kDrain };

  std::future<Result<RequesterPlan>> SubmitWithPolicy(
      std::string requester_id, std::vector<CrowdsourcingTask> tasks,
      BackpressurePolicy policy, Status* rejected,
      std::string submission_id, std::string platform_hint);
  /// True when `pending` may be admitted now: the queue is empty (a lone
  /// submission is never deadlocked by a cap smaller than itself) or the
  /// governor has room for it. Requires mutex_ held.
  bool HasRoomLocked(const Pending& pending) const;
  /// Admission time of the oldest pending submission; only valid when
  /// something is pending.
  std::chrono::steady_clock::time_point OldestAdmittedLocked() const;
  /// Appends `pending` to its tenant's queue and charges all counters.
  void EnqueueLocked(Pending pending);
  /// Removes and returns the globally oldest pending submission (for
  /// kShedOldest), releasing its charges; only valid when pending.
  Pending PopOldestLocked();
  /// Cuts the next micro-batch out of the pending state, releasing its
  /// charges: a deficit-round-robin selection bounded by the flush caps.
  std::vector<Pending> AssembleBatchLocked();
  /// The tenant queue `requester` submits into: its own with fairness on,
  /// the one shared queue with fairness off.
  const std::string& TenantOf(const std::string& requester) const;
  uint64_t WeightOf(const std::string& tenant) const;
  void WorkerLoop();
  /// True when the pending batch must flush now on size alone (the
  /// deadline path is handled by the worker's timed wait).
  bool SizeTriggeredLocked() const;
  void ProcessBatch(std::vector<Pending> batch, FlushReason reason);

  const StreamingOptions options_;
  /// Single-profile serving: the constructor profile as an unnamed,
  /// unsalted snapshot (empty platform id, epoch 0, salt 0).
  const PlatformSnapshot unrouted_;
  DecompositionEngine engine_;
  ResourceGovernor governor_;  ///< pending-queue bytes / atomic tasks

  mutable std::mutex mutex_;
  std::condition_variable wake_;     ///< worker: pending work or shutdown
  std::condition_variable drained_;  ///< Drain(): everything fulfilled
  std::condition_variable admit_;    ///< blocked Submit: room freed
  // Per-tenant queues + the round-robin ring of tenants with pending work.
  // pending_count_ tracks submissions across all tenants.
  std::map<std::string, TenantState> tenants_;
  std::deque<std::string> ring_;
  /// Submission ids currently in flight (admitted or being admitted, not
  /// yet resolved): the in-process half of idempotency. A duplicate of a
  /// member fails with AlreadyExists; ids leave the set when their
  /// outcome is published (after the journal's durability barrier).
  std::set<std::string> active_ids_;
  size_t pending_count_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_atomic_ = 0;
  bool flush_requested_ = false;
  bool shutdown_ = false;
  size_t in_flight_ = 0;  ///< submissions handed to ProcessBatch
  uint64_t next_flush_id_ = 0;
  StreamingStats stats_;

  /// Registry-mode epoch subscription: evicts the retired epoch's cache
  /// entries on promotion/retire. 0 = not subscribed.
  uint64_t epoch_listener_id_ = 0;

  std::thread worker_;  ///< last member: joins before the rest dies
};

}  // namespace slade

#endif  // SLADE_ENGINE_STREAMING_ENGINE_H_
