#include "engine/streaming_engine.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace slade {

namespace {

EngineOptions ToEngineOptions(const StreamingOptions& options) {
  EngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  engine_options.opq_node_budget = options.opq_node_budget;
  engine_options.sharing = options.sharing;
  engine_options.resources = options.resources;
  return engine_options;
}

/// Floors both flush caps at 1: a cap of 0 would make SizeTriggeredLocked
/// true on an empty pending queue and spin the worker forever, and "flush
/// at 0 pending" can only mean "flush each submission immediately" anyway.
/// The fairness quantum and default weight are floored at 1 for the same
/// liveness reason: a zero quantum would never grant credit. With fairness
/// off every submission shares one tenant queue, so per-tenant weights and
/// quotas are cleared rather than applied to that queue as a whole.
StreamingOptions Sanitized(StreamingOptions options) {
  if (options.max_pending_atomic_tasks == 0) {
    options.max_pending_atomic_tasks = 1;
  }
  if (options.max_pending_submissions == 0) {
    options.max_pending_submissions = 1;
  }
  if (options.fairness.quantum_atomic_tasks == 0) {
    options.fairness.quantum_atomic_tasks = 1;
  }
  if (options.fairness.default_weight == 0) {
    options.fairness.default_weight = 1;
  }
  if (!options.fairness.enabled) {
    options.fairness.weights.clear();
    options.fairness.tenant_max_pending_atomic_tasks = 0;
    options.fairness.tenant_max_pending_bytes = 0;
  }
  return options;
}

}  // namespace

StreamingEngine::StreamingEngine(BinProfile profile, StreamingOptions options)
    : options_(Sanitized(options)),
      unrouted_{/*platform_id=*/{}, /*epoch=*/0, /*salt=*/0,
                std::make_shared<const BinProfile>(std::move(profile))},
      engine_(ToEngineOptions(options_)),
      governor_(options_.resources.queue_max_bytes,
                options_.resources.queue_max_atomic_tasks),
      worker_(&StreamingEngine::WorkerLoop, this) {
  if (options_.registry != nullptr) {
    // Epoch promotions (and retires) invalidate exactly the retired
    // (platform, epoch)'s OPQ builds. In-flight batches are unaffected:
    // they hold their queues by shared_ptr and their profile snapshots by
    // admission-time pin.
    epoch_listener_id_ = options_.registry->AddEpochListener(
        [this](const std::string& /*platform_id*/, uint64_t retired_salt,
               uint64_t /*new_epoch*/) {
          engine_.mutable_cache().EvictBySalt(retired_salt);
        });
  }
}

StreamingEngine::~StreamingEngine() {
  // Unsubscribe before tearing anything down so a concurrent promotion
  // can no longer call into this engine's cache.
  if (options_.registry != nullptr && epoch_listener_id_ != 0) {
    options_.registry->RemoveEpochListener(epoch_listener_id_);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  admit_.notify_all();
  worker_.join();
}

std::future<Result<RequesterPlan>> StreamingEngine::Submit(
    std::string requester_id, std::vector<CrowdsourcingTask> tasks,
    std::string submission_id, std::string platform_hint) {
  return SubmitWithPolicy(std::move(requester_id), std::move(tasks),
                          options_.resources.backpressure,
                          /*rejected=*/nullptr, std::move(submission_id),
                          std::move(platform_hint));
}

Result<std::future<Result<RequesterPlan>>> StreamingEngine::TrySubmit(
    std::string requester_id, std::vector<CrowdsourcingTask> tasks,
    std::string submission_id, std::string platform_hint) {
  Status rejected;
  std::future<Result<RequesterPlan>> future =
      SubmitWithPolicy(std::move(requester_id), std::move(tasks),
                       BackpressurePolicy::kReject, &rejected,
                       std::move(submission_id), std::move(platform_hint));
  if (!rejected.ok()) return rejected;
  return future;
}

size_t StreamingEngine::ReplayRecovered(
    std::vector<RecoveredSubmission> recovered) {
  size_t admitted = 0;
  for (RecoveredSubmission& sub : recovered) {
    if (sub.tasks.empty()) continue;
    Status rejected;
    // kBlock regardless of the configured policy: recovered work was
    // durably admitted before the crash and must not be dropped by
    // backpressure now. The original client connection died with the
    // crash, so the future is discarded — the plan is still solved,
    // journaled and billed, and a retry of the id replays its outcome.
    std::future<Result<RequesterPlan>> future = SubmitWithPolicy(
        std::move(sub.requester), std::move(sub.tasks),
        BackpressurePolicy::kBlock, &rejected, std::move(sub.submission_id),
        /*platform_hint=*/{});
    (void)future;
    if (rejected.ok()) ++admitted;
  }
  return admitted;
}

uint64_t StreamingEngine::WeightOf(const std::string& tenant) const {
  const auto it = options_.fairness.weights.find(tenant);
  if (it == options_.fairness.weights.end() || it->second == 0) {
    return options_.fairness.default_weight;
  }
  return it->second;
}

const std::string& StreamingEngine::TenantOf(
    const std::string& requester) const {
  static const std::string kSharedTenant;
  return options_.fairness.enabled ? requester : kSharedTenant;
}

bool StreamingEngine::HasRoomLocked(const Pending& pending) const {
  if (pending_count_ == 0) return true;
  return governor_.WouldFit(pending.bytes, pending.num_atomic);
}

std::chrono::steady_clock::time_point StreamingEngine::OldestAdmittedLocked()
    const {
  // Per-tenant queues are FIFO, so the global oldest is among the fronts.
  const Pending* oldest = nullptr;
  for (const auto& [tenant, state] : tenants_) {
    if (state.queue.empty()) continue;
    if (oldest == nullptr || state.queue.front().seq < oldest->seq) {
      oldest = &state.queue.front();
    }
  }
  return oldest->admitted;
}

void StreamingEngine::EnqueueLocked(Pending pending) {
  governor_.Charge(pending.bytes, pending.num_atomic);
  stats_.submissions += 1;
  stats_.tasks += pending.tasks.size();
  stats_.atomic_tasks += pending.num_atomic;
  pending_count_ += 1;
  pending_atomic_ += pending.num_atomic;
  const std::string& tenant = TenantOf(pending.requester);
  TenantState& state = tenants_[tenant];
  state.counters.submissions += 1;
  state.counters.tasks += pending.tasks.size();
  state.counters.atomic_tasks += pending.num_atomic;
  state.pending_atomic += pending.num_atomic;
  state.pending_bytes += pending.bytes;
  if (!state.in_ring) {
    state.in_ring = true;
    ring_.push_back(tenant);
  }
  state.queue.push_back(std::move(pending));
}

StreamingEngine::Pending StreamingEngine::PopOldestLocked() {
  TenantState* best = nullptr;
  for (auto& [tenant, state] : tenants_) {
    if (state.queue.empty()) continue;
    if (best == nullptr ||
        state.queue.front().seq < best->queue.front().seq) {
      best = &state;
    }
  }
  Pending victim = std::move(best->queue.front());
  best->queue.pop_front();
  best->pending_atomic -= victim.num_atomic;
  best->pending_bytes -= victim.bytes;
  best->counters.shed += 1;
  pending_count_ -= 1;
  pending_atomic_ -= victim.num_atomic;
  governor_.Release(victim.bytes, victim.num_atomic);
  return victim;
}

std::vector<StreamingEngine::Pending> StreamingEngine::AssembleBatchLocked() {
  // Deficit round-robin over the active tenant ring (one shared tenant
  // when fairness is off, which makes it FIFO). Each visit earns
  // quantum * weight atomic tasks of credit once; whole submissions are
  // taken FIFO while credit lasts. The flush caps bound one micro-batch
  // (the batch always takes at least one submission, so an oversized
  // submission still progresses). A visit cut short by a full batch keeps
  // its ring-front spot and resumes in the next batch, which the worker
  // starts immediately, on the credit it has left.
  std::vector<Pending> batch;
  batch.reserve(std::min(pending_count_, options_.max_pending_submissions));
  const uint64_t quantum = options_.fairness.quantum_atomic_tasks;
  size_t batch_atomic = 0;
  bool full = false;
  while (!full && !ring_.empty()) {
    const std::string tenant = ring_.front();
    TenantState& state = tenants_[tenant];
    if (state.queue.empty()) {
      // Emptied by a shed or a previous visit: retire from the ring and
      // forfeit unspent credit (idle tenants must not hoard bursts).
      state.deficit = 0;
      state.credited = false;
      state.in_ring = false;
      ring_.pop_front();
      continue;
    }
    if (!state.credited) {
      state.deficit += quantum * WeightOf(tenant);
      state.credited = true;
    }
    while (!state.queue.empty() &&
           state.queue.front().num_atomic <= state.deficit) {
      const Pending& front = state.queue.front();
      if (!batch.empty() &&
          (batch.size() >= options_.max_pending_submissions ||
           batch_atomic + front.num_atomic >
               options_.max_pending_atomic_tasks)) {
        full = true;
        break;
      }
      Pending taken = std::move(state.queue.front());
      state.queue.pop_front();
      state.deficit -= taken.num_atomic;
      state.pending_atomic -= taken.num_atomic;
      state.pending_bytes -= taken.bytes;
      pending_count_ -= 1;
      pending_atomic_ -= taken.num_atomic;
      batch_atomic += taken.num_atomic;
      governor_.Release(taken.bytes, taken.num_atomic);
      batch.push_back(std::move(taken));
    }
    if (full) break;  // the visit resumes in the next batch
    state.credited = false;
    if (state.queue.empty()) {
      state.deficit = 0;
      state.in_ring = false;
      ring_.pop_front();
    } else {
      // Credit exhausted for this round: rotate to the back of the ring.
      ring_.pop_front();
      ring_.push_back(tenant);
    }
  }
  return batch;
}

std::future<Result<RequesterPlan>> StreamingEngine::SubmitWithPolicy(
    std::string requester_id, std::vector<CrowdsourcingTask> tasks,
    BackpressurePolicy policy, Status* rejected, std::string submission_id,
    std::string platform_hint) {
  std::promise<Result<RequesterPlan>> promise;
  std::future<Result<RequesterPlan>> future = promise.get_future();
  if (tasks.empty()) {
    promise.set_value(Status::InvalidArgument(
        "StreamingEngine::Submit: empty submission from requester '" +
        requester_id + "'"));
    return future;
  }

  // Pin the serving profile snapshot now: the engine's unnamed one, or in
  // registry mode the routed platform's current epoch. Everything after
  // admission -- the batch solve, the cache key, the billing echo -- uses
  // this snapshot, so a promotion between admission and flush never
  // reroutes or re-plans admitted work.
  Pending pending;
  if (options_.registry == nullptr) {
    pending.serving = unrouted_;
  } else {
    Result<PlatformSnapshot> route = options_.registry->Route(
        requester_id, tasks, options_.routing, platform_hint);
    if (!route.ok()) {
      if (rejected != nullptr) *rejected = route.status();
      promise.set_value(route.status());
      return future;
    }
    pending.serving = std::move(*route);
  }

  DurabilityHooks* const hooks = options_.durability;
  if (hooks != nullptr && submission_id.empty()) {
    // Durability needs an id for every submission: outcome records pair
    // with their admit record by id.
    submission_id = hooks->GenerateSubmissionId();
  }
  if (!submission_id.empty()) {
    // Idempotency gate. Both checks run under the engine lock so they
    // order against the publish path (ProcessBatch publishes the outcome
    // to the journal *before* retiring the id from active_ids_): a
    // duplicate either still sees the id active, or sees its outcome.
    std::unique_lock<std::mutex> lock(mutex_);
    if (active_ids_.count(submission_id) != 0) {
      Status status = Status::AlreadyExists(
          "StreamingEngine: submission id '" + submission_id +
          "' is already in flight");
      lock.unlock();
      if (rejected != nullptr) *rejected = status;
      promise.set_value(std::move(status));
      return future;
    }
    SubmissionOutcome outcome;
    if (hooks != nullptr && hooks->LookupCompleted(submission_id, &outcome)) {
      stats_.duplicate_hits += 1;
      lock.unlock();
      // Replay the original outcome: same billing metadata, no re-solve.
      RequesterPlan replay;
      replay.requester_id = std::move(requester_id);
      replay.submission_id = std::move(submission_id);
      replay.duplicate = true;
      replay.cost = outcome.cost;
      replay.bins_posted = outcome.bins_posted;
      replay.flush_id = outcome.flush_id;
      replay.latency_seconds = outcome.latency_seconds;
      replay.task_offsets.reserve(tasks.size() + 1);
      size_t offset = 0;
      replay.task_offsets.push_back(0);
      for (const CrowdsourcingTask& t : tasks) {
        offset += t.size();
        replay.task_offsets.push_back(offset);
      }
      promise.set_value(std::move(replay));
      return future;
    }
    active_ids_.insert(submission_id);
  }
  if (hooks != nullptr) {
    // Journal the admission before it can enter the pending queue: once
    // this returns the submission is recoverable. Done outside the
    // engine lock — it blocks on the group-commit fsync. A backpressure
    // rejection below closes the id with a buffered reject record.
    const Status journaled =
        hooks->RecordAdmit(submission_id, requester_id, tasks);
    if (!journaled.ok()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ids_.erase(submission_id);
      }
      if (rejected != nullptr) *rejected = journaled;
      promise.set_value(journaled);
      return future;
    }
  }

  pending.requester = std::move(requester_id);
  pending.submission_id = std::move(submission_id);
  for (const CrowdsourcingTask& t : tasks) pending.num_atomic += t.size();
  pending.tasks = std::move(tasks);
  pending.bytes = sizeof(Pending) + pending.requester.capacity() +
                  pending.submission_id.capacity();
  for (const CrowdsourcingTask& t : pending.tasks) {
    pending.bytes += sizeof(CrowdsourcingTask) + t.size() * sizeof(double);
  }
  pending.admitted = std::chrono::steady_clock::now();
  pending.promise = std::move(promise);
  // The snapshot moves into the queue on admission; the routed platform's
  // counters are charged afterwards.
  const std::string routed_platform = pending.serving.platform_id;
  const uint64_t routed_tasks = pending.tasks.size();
  const uint64_t routed_atomic = pending.num_atomic;

  const FairnessOptions& fairness = options_.fairness;
  Status refused;             // set where an admission decision says no
  std::vector<Pending> shed;  // promises fulfilled after the lock drops
  {
    std::unique_lock<std::mutex> lock(mutex_);
    pending.seq = next_seq_++;
    // The tenant quota is checked before (and independently of) the
    // global policy: over-quota submissions are always rejected, so a
    // greedy tenant can neither block the shared queue nor shed other
    // tenants' work to make room for its own. A tenant whose queue is
    // empty admits regardless (the per-tenant empty-queue rule). Quotas
    // are 0 (unbounded) with fairness off.
    const auto it = tenants_.find(TenantOf(pending.requester));
    if (it != tenants_.end() && !it->second.queue.empty()) {
      TenantState& state = it->second;
      const bool over_atomic =
          fairness.tenant_max_pending_atomic_tasks > 0 &&
          state.pending_atomic + pending.num_atomic >
              fairness.tenant_max_pending_atomic_tasks;
      const bool over_bytes =
          fairness.tenant_max_pending_bytes > 0 &&
          state.pending_bytes + pending.bytes >
              fairness.tenant_max_pending_bytes;
      if (over_atomic || over_bytes) {
        state.counters.rejected_quota += 1;
        stats_.rejected_tenant_quota += 1;
        refused = Status::ResourceExhausted(
            "StreamingEngine: tenant quota exceeded for requester '" +
            pending.requester + "' (" +
            std::to_string(fairness.tenant_max_pending_atomic_tasks) +
            " atomic tasks / " +
            std::to_string(fairness.tenant_max_pending_bytes) +
            " bytes pending cap)");
        // Kick a flush anyway: draining is what shrinks the tenant's
        // pending load below its quota.
        flush_requested_ = true;
        wake_.notify_one();
      }
    }
    if (refused.ok() && !HasRoomLocked(pending)) {
      // The queue is full: kick a flush so the solver opens room as fast
      // as it can, then apply the policy.
      flush_requested_ = true;
      wake_.notify_one();
      switch (policy) {
        case BackpressurePolicy::kBlock:
          stats_.blocked += 1;
          // Re-kick the flush on every wake: a waiter that loses the
          // post-flush admission race to another submitter must ask for
          // the *next* flush too, or it would stall until the deadline.
          while (!shutdown_ && !HasRoomLocked(pending)) {
            flush_requested_ = true;
            wake_.notify_one();
            admit_.wait(lock);
          }
          if (shutdown_) {
            // Admitting now could race the exiting worker and leave the
            // future unfulfilled; fail it cleanly instead.
            stats_.rejected += 1;
            refused = Status::ResourceExhausted(
                "StreamingEngine: engine shut down while submission "
                "was blocked on a full admission queue");
          }
          break;
        case BackpressurePolicy::kReject:
          stats_.rejected += 1;
          refused = Status::ResourceExhausted(
              "StreamingEngine: admission queue full (" +
              std::to_string(governor_.max_units()) + " atomic tasks / " +
              std::to_string(governor_.max_bytes()) + " bytes cap)");
          break;
        case BackpressurePolicy::kShedOldest:
          // Evict pending submissions oldest-first until the newcomer
          // fits. If it is bigger than the whole cap, the queue empties
          // and the empty-queue rule admits it alone.
          while (!HasRoomLocked(pending) && pending_count_ > 0) {
            stats_.shed += 1;
            shed.push_back(PopOldestLocked());
          }
          break;
      }
    }
    if (!refused.ok() && !pending.submission_id.empty()) {
      active_ids_.erase(pending.submission_id);
    }
    for (const Pending& victim : shed) {
      if (!victim.submission_id.empty()) {
        active_ids_.erase(victim.submission_id);
      }
    }
    if (refused.ok()) EnqueueLocked(std::move(pending));
  }
  if (refused.ok()) {
    wake_.notify_one();
    if (options_.registry != nullptr) {
      options_.registry->RecordRouted(routed_platform, routed_tasks,
                                      routed_atomic);
    }
  }

  if (hooks != nullptr) {
    // Close journaled ids that will never complete. Buffered, not
    // synced: losing a reject record to a crash merely re-admits work
    // the client was told to retry — safe, since a rejection is never
    // billed and never dedupable.
    for (const Pending& victim : shed) {
      if (!victim.submission_id.empty()) {
        hooks->RecordReject(victim.submission_id);
      }
    }
    if (!refused.ok() && !pending.submission_id.empty()) {
      hooks->RecordReject(pending.submission_id);
    }
  }

  for (Pending& victim : shed) {
    victim.promise.set_value(Status::ResourceExhausted(
        "StreamingEngine: submission from requester '" + victim.requester +
        "' shed by shed-oldest backpressure to admit newer work"));
  }
  if (!refused.ok()) {
    if (rejected != nullptr) *rejected = refused;
    pending.promise.set_value(std::move(refused));
  }
  return future;
}

void StreamingEngine::Flush() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_count_ == 0) return;
    flush_requested_ = true;
  }
  wake_.notify_one();
}

void StreamingEngine::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_count_ > 0) {
    flush_requested_ = true;
    wake_.notify_one();
  }
  drained_.wait(lock, [&] { return pending_count_ == 0 && in_flight_ == 0; });
}

StreamingStats StreamingEngine::stats() const {
  StreamingStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
    stats.queue_submissions = pending_count_;
    stats.queue_atomic_tasks = pending_atomic_;
  }
  const GovernorCounters counters = governor_.counters();
  stats.queue_bytes = counters.bytes;
  stats.peak_queue_atomic_tasks = counters.peak_units;
  stats.peak_queue_bytes = counters.peak_bytes;
  return stats;
}

std::vector<TenantStats> StreamingEngine::tenant_stats() const {
  std::vector<TenantStats> out;
  if (!options_.fairness.enabled) return out;  // one shared, unnamed queue
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(tenants_.size());
  for (const auto& [tenant, state] : tenants_) {
    TenantStats stats = state.counters;
    stats.tenant = tenant;
    stats.weight = WeightOf(tenant);
    stats.pending_submissions = state.queue.size();
    stats.pending_atomic_tasks = state.pending_atomic;
    stats.pending_bytes = state.pending_bytes;
    out.push_back(std::move(stats));
  }
  return out;
}

bool StreamingEngine::SizeTriggeredLocked() const {
  return pending_count_ >= options_.max_pending_submissions ||
         pending_atomic_ >= options_.max_pending_atomic_tasks;
}

void StreamingEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    bool deadline_hit = false;
    while (!shutdown_ && !flush_requested_ && !SizeTriggeredLocked()) {
      if (pending_count_ == 0) {
        wake_.wait(lock);
      } else {
        const auto deadline =
            OldestAdmittedLocked() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options_.max_delay_seconds));
        if (wake_.wait_until(lock, deadline) == std::cv_status::timeout) {
          deadline_hit = true;
          break;
        }
      }
    }
    if (pending_count_ == 0) {
      flush_requested_ = false;
      if (shutdown_) return;
      continue;
    }

    FlushReason reason = FlushReason::kDrain;
    if (SizeTriggeredLocked()) {
      reason = FlushReason::kSize;
    } else if (deadline_hit && !flush_requested_ && !shutdown_) {
      reason = FlushReason::kDeadline;
    }
    flush_requested_ = false;
    std::vector<Pending> batch = AssembleBatchLocked();
    // A batch is bounded by the flush caps, so work may remain; keep the
    // worker draining it without waiting for a new trigger.
    if (pending_count_ > 0) flush_requested_ = true;
    const size_t batch_size = batch.size();
    in_flight_ += batch_size;
    // The queue just shrank: submitters blocked on backpressure may admit
    // (and refill it) while the solve below runs.
    admit_.notify_all();

    lock.unlock();
    ProcessBatch(std::move(batch), reason);
    lock.lock();

    in_flight_ -= batch_size;
    if (pending_count_ == 0 && in_flight_ == 0) drained_.notify_all();
  }
}

void StreamingEngine::ProcessBatch(std::vector<Pending> batch,
                                   FlushReason reason) {
  // Partition the micro-batch by serving (platform, epoch); without a
  // registry every submission carries the engine's unnamed snapshot, so
  // the batch is one group. Each group solves against its members'
  // admission-epoch snapshot, so submissions admitted before a promotion
  // are planned under the profile they were admitted with. Groups
  // preserve admission order, and members keep their admission order
  // within a group. A batch meets few (platform, epoch)s: scan, no index.
  struct Group {
    const PlatformSnapshot* serving = nullptr;
    std::vector<size_t> members;  ///< indices into `batch`
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    const PlatformSnapshot& serving = batch[i].serving;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.serving->epoch == serving.epoch &&
             g.serving->platform_id == serving.platform_id;
    });
    if (it == groups.end()) {
      groups.push_back(Group{&serving, {}});
      it = groups.end() - 1;
    }
    it->members.push_back(i);
  }

  // Solve each group and scatter its slices back to the batch slots. A
  // failed group fails only its own members, with the status a direct
  // SolveBatch call would have returned.
  std::vector<RequesterPlan> slice_of(batch.size());
  std::vector<Status> status_of(batch.size());
  double solve_seconds = 0.0;
  double batch_cost_total = 0.0;   // engine cost across groups
  double slice_cost_total = 0.0;   // delivered slice costs across groups
  bool any_solved = false;
  for (const Group& group : groups) {
    std::vector<CrowdsourcingTask> tasks;
    std::vector<RequesterSpan> spans;
    spans.reserve(group.members.size());
    for (size_t i : group.members) {
      Pending& p = batch[i];
      RequesterSpan span;
      span.requester_id = p.requester;
      span.first_task = tasks.size();
      span.num_tasks = p.tasks.size();
      spans.push_back(std::move(span));
      for (CrowdsourcingTask& t : p.tasks) tasks.push_back(std::move(t));
    }

    const BinProfile& profile = *group.serving->profile;
    Result<BatchReport> report =
        engine_.SolveBatch(tasks, profile, group.serving->salt);
    Result<std::vector<RequesterPlan>> slices =
        report.ok() ? PlanSplitter::SplitBySpans(*report, profile, spans)
                    : Result<std::vector<RequesterPlan>>(report.status());
    if (!slices.ok()) {
      for (size_t i : group.members) status_of[i] = slices.status();
      continue;
    }
    any_solved = true;
    solve_seconds += report->wall_seconds;
    batch_cost_total += report->total_cost;
    for (size_t k = 0; k < group.members.size(); ++k) {
      const size_t i = group.members[k];
      slice_of[i] = std::move((*slices)[k]);
      slice_of[i].platform = batch[i].serving.platform_id;
      slice_of[i].epoch = batch[i].serving.epoch;
      slice_cost_total += slice_of[i].cost;
    }
  }

  uint64_t flush_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    flush_id = next_flush_id_++;
  }

  const auto now = std::chrono::steady_clock::now();
  DurabilityHooks* const hooks = options_.durability;
  if (hooks != nullptr) {
    // Journal every outcome of the micro-batch, then pay one durability
    // barrier before any future resolves: an acked outcome is always on
    // disk. SyncOutcomes also publishes the outcomes to the duplicate-id
    // map; the ids retire from active_ids_ under the stats lock below,
    // so a concurrent duplicate submit never falls between the two.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!status_of[i].ok()) {
        // A failed solve closes the id without an outcome: the client
        // sees the error and may retry the same id for a real solve.
        hooks->RecordReject(batch[i].submission_id);
        continue;
      }
      SubmissionOutcome outcome;
      const RequesterPlan& slice = slice_of[i];
      outcome.cost = slice.cost;
      outcome.bins_posted = slice.bins_posted;
      outcome.flush_id = flush_id;
      outcome.num_tasks = slice.num_tasks();
      outcome.num_atomic_tasks = batch[i].num_atomic;
      outcome.latency_seconds =
          std::chrono::duration<double>(now - batch[i].admitted).count();
      hooks->RecordComplete(batch[i].submission_id, outcome);
    }
    hooks->SyncOutcomes();
    hooks->Compact();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Pending& p : batch) {
      if (!p.submission_id.empty()) active_ids_.erase(p.submission_id);
    }
    stats_.flushes += 1;
    switch (reason) {
      case FlushReason::kSize:
        stats_.flushes_by_size += 1;
        break;
      case FlushReason::kDeadline:
        stats_.flushes_by_deadline += 1;
        break;
      case FlushReason::kDrain:
        stats_.flushes_by_drain += 1;
        break;
    }
    if (any_solved) {
      stats_.solve_seconds += solve_seconds;
      stats_.total_cost += batch_cost_total;
    }
    // Per-tenant delivery accounting. Billed = the tenant's slice costs;
    // platform = the batch cost apportioned by billed share (equal to
    // billed under kIsolated, smaller under kPooled).
    std::set<std::string> counted;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!status_of[i].ok()) continue;
      const std::string& tenant = TenantOf(batch[i].requester);
      TenantState& state = tenants_[tenant];
      const double cost = slice_of[i].cost;
      state.counters.delivered += 1;
      state.counters.billed_cost += cost;
      state.counters.platform_cost +=
          slice_cost_total > 0.0
              ? batch_cost_total * (cost / slice_cost_total)
              : 0.0;
      // A tenant with several submissions in the batch still counts this
      // micro-batch once.
      if (counted.insert(tenant).second) state.counters.flushes += 1;
    }
  }

  if (options_.registry != nullptr) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (status_of[i].ok()) {
        options_.registry->RecordBilled(batch[i].serving.platform_id,
                                        slice_of[i].cost);
      }
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    if (!status_of[i].ok()) {
      batch[i].promise.set_value(status_of[i]);
      continue;
    }
    RequesterPlan slice = std::move(slice_of[i]);
    slice.flush_id = flush_id;
    slice.submission_id = batch[i].submission_id;
    slice.latency_seconds =
        std::chrono::duration<double>(now - batch[i].admitted).count();
    batch[i].promise.set_value(std::move(slice));
  }
}

}  // namespace slade
