// Copyright (c) the SLADE reproduction authors.
// Shared resource accounting for the engine stack.
//
// Every bounded component in the serving path -- the OPQ cache's entries,
// the streaming engine's admission queue -- has the same accounting need:
// track how many bytes and how many units it currently holds, answer "does
// one more fit?" against configured capacities, and expose counters so
// operators can see pressure building before it turns into latency. The
// ResourceGovernor is that one component; OpqCache charges it per cached
// queue and StreamingEngine per pending submission, so both layers enforce
// and report their limits the same way.

#ifndef SLADE_ENGINE_RESOURCE_GOVERNOR_H_
#define SLADE_ENGINE_RESOURCE_GOVERNOR_H_

#include <cstdint>
#include <mutex>

namespace slade {

/// \brief What a full admission queue does to the next submission.
enum class BackpressurePolicy {
  /// Submit blocks until the queue has room (and kicks a flush so room
  /// appears as fast as the solver allows). Nothing is ever lost.
  kBlock,
  /// Submit fails the returned future immediately with ResourceExhausted.
  kReject,
  /// The oldest *pending* submission is evicted and its future failed with
  /// ResourceExhausted; the new submission takes its place.
  kShedOldest,
};

const char* BackpressurePolicyName(BackpressurePolicy policy);

/// \brief Capacity knobs threaded through EngineOptions / StreamingOptions
/// down to the governed components. Every limit of 0 means "unbounded",
/// which reproduces the pre-governor behavior exactly.
struct ResourceOptions {
  // --- OpqCache (engine + streaming layers) ---
  /// Evict least-recently-used cached queues beyond this many estimated
  /// bytes (see OptimalPriorityQueue::EstimatedBytes).
  uint64_t cache_max_bytes = 0;
  /// Evict least-recently-used cached queues beyond this many entries.
  uint64_t cache_max_entries = 0;
  /// Lock shards of the cache; floored at 1. More shards cut contention
  /// when many solver threads look up distinct keys at once.
  uint32_t cache_shards = 8;

  // --- StreamingEngine admission queue ---
  /// Cap on atomic tasks queued ahead of the solver (pending, not yet
  /// flushed). A single submission larger than the cap is still admitted
  /// once the queue is otherwise empty, so no input deadlocks.
  uint64_t queue_max_atomic_tasks = 0;
  /// Cap on estimated bytes queued ahead of the solver.
  uint64_t queue_max_bytes = 0;
  /// What happens to a submission that does not fit.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

/// \brief Lifetime counters of one governor, readable via counters().
struct GovernorCounters {
  uint64_t bytes = 0;        ///< currently charged bytes
  uint64_t units = 0;        ///< currently charged units
  uint64_t peak_bytes = 0;   ///< high-water mark of bytes
  uint64_t peak_units = 0;   ///< high-water mark of units
  uint64_t admitted = 0;     ///< successful Charge/TryAdmit calls
  uint64_t denied = 0;       ///< TryAdmit calls that did not fit
};

/// \brief Thread-safe bytes/units ledger with capacities.
///
/// "Units" are whatever the owning component counts: cache entries for
/// OpqCache, atomic tasks for StreamingEngine admission. A capacity of 0
/// disables that dimension's limit.
class ResourceGovernor {
 public:
  ResourceGovernor(uint64_t max_bytes, uint64_t max_units)
      : max_bytes_(max_bytes), max_units_(max_units) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Charges iff the result stays within both capacities; returns whether
  /// it charged. The check-and-charge is atomic.
  bool TryAdmit(uint64_t bytes, uint64_t units);

  /// Charges unconditionally (the caller enforces capacity by other means,
  /// e.g. the cache charges first and then evicts back under the limit).
  void Charge(uint64_t bytes, uint64_t units);

  /// Returns a previous charge. Saturates at zero rather than underflowing
  /// so a double-release bug cannot corrupt every later admission check.
  void Release(uint64_t bytes, uint64_t units);

  /// True iff charging (bytes, units) on top of the current load would
  /// stay within both capacities. Read-only; the answer can go stale the
  /// moment the lock drops, so use TryAdmit when the charge must be atomic.
  bool WouldFit(uint64_t bytes, uint64_t units) const;

  /// True iff the current load exceeds either capacity.
  bool OverCapacity() const;

  uint64_t max_bytes() const { return max_bytes_; }
  uint64_t max_units() const { return max_units_; }

  GovernorCounters counters() const;

 private:
  bool FitsLocked(uint64_t bytes, uint64_t units) const;

  const uint64_t max_bytes_;  // 0 = unbounded
  const uint64_t max_units_;  // 0 = unbounded

  mutable std::mutex mutex_;
  GovernorCounters counters_;
};

}  // namespace slade

#endif  // SLADE_ENGINE_RESOURCE_GOVERNOR_H_
