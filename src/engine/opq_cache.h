// Copyright (c) the SLADE reproduction authors.
// Memoized optimal-priority-queue builds, keyed by (profile, decision-key
// interval).
//
// Building an OPQ (Algorithm 2) is the expensive, input-independent part of
// the OPQ-Based/OPQ-Extended solvers: it depends only on the bin profile and
// the reliability threshold, never on which atomic tasks are being assigned.
// It reads the threshold t only through the decision key
// OpqDecisionKey(t), and a build's queue is the same for every key in the
// interval (lo, hi] it reports (opq_builder.h says why). So the cache keeps,
// per (profile, salt), one entry per built interval, and a lookup finds the
// interval holding its key by binary search: 18,228 distinct N(0.9, 0.03)
// thresholds at six decimals fall into 15 intervals of a Jelly 10 profile,
// 78 of SMIC 8 and 374 of SMIC 20, and every lookup returns exactly the
// queue a fresh build would.
// An invalid threshold (LogReduction(1.5) is NaN) or a failed build is
// memoized under the threshold's exact bits instead.
//
// The cache is capacity-bounded: a ResourceGovernor tracks estimated bytes
// (OptimalPriorityQueue::EstimatedBytes plus entry overhead, and each
// profile's copy once) and entry counts globally, and least-recently-used
// entries are evicted while the cache is over an OpqCacheOptions limit.
// Profiles live in N lock shards; recency is a global monotonic tick
// stamped on every touch, and eviction scans every entry for the stalest
// -- entries are few, and builds are expensive next to the scan. The entry
// just inserted by the running lookup is never evicted by that same lookup
// (the working key stays served even when it alone exceeds the budget).
// Eviction never invalidates a queue a solver already holds: queues are
// handed out as shared_ptr<const ...>.

#ifndef SLADE_ENGINE_OPQ_CACHE_H_
#define SLADE_ENGINE_OPQ_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "binmodel/task_bin.h"
#include "common/result.h"
#include "engine/resource_governor.h"
#include "solver/opq_builder.h"

namespace slade {

/// \brief Capacity and sharding knobs of one OpqCache.
struct OpqCacheOptions {
  /// Evict LRU entries beyond this many estimated bytes (0 = unbounded).
  uint64_t max_bytes = 0;
  /// Evict LRU entries beyond this many entries (0 = unbounded).
  uint64_t max_entries = 0;
  /// Lock shards, over profiles (each profile and salt lives in one shard);
  /// floored at 1, clamped to max_entries when that is set.
  uint32_t num_shards = 8;
  /// Test hook: profile fingerprints are ANDed with this mask before
  /// keying, so a test can force distinct profiles onto one key and
  /// exercise the structural-equality collision guard deterministically.
  uint64_t fingerprint_mask = ~UINT64_C(0);
};

/// \brief Lifetime + occupancy counters, readable via stats().
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Lookups whose fingerprint matched a structurally different profile
  /// (or salt); each such lookup started a distinct chained profile.
  uint64_t collisions = 0;
  uint64_t entries = 0;     ///< current resident entries
  uint64_t bytes = 0;       ///< current charged bytes
  uint64_t peak_entries = 0;
  uint64_t peak_bytes = 0;

  /// Aggregate Algorithm 2 build cost paid by this cache's misses:
  /// number of enumerations run, their summed OpqBuildStats and wall time.
  /// Failed builds (e.g. node-budget exhaustion) are included -- their
  /// nodes were still visited and paid for.
  uint64_t builds = 0;
  OpqBuildStats build_stats;
  double build_seconds = 0.0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief Thread-safe, capacity-bounded, sharded LRU memo of BuildOpq
/// results.
///
/// Profiles are keyed by their masked fingerprint; on a fingerprint match
/// the stored profile is compared structurally, so two profiles colliding
/// on the hash never share a queue -- the second gets its own chained set
/// of entries. Within one profile, builds run one at a time and a lookup
/// that waited for a build searches again before it builds, so each
/// interval is built at most once while it is resident and the hit/miss
/// counts do not depend on thread timing. Queues are handed out as
/// shared_ptr<const ...>, so they stay valid even if their entry is
/// evicted or the cache is cleared while a solve is in flight.
class OpqCache {
 public:
  struct Lookup {
    std::shared_ptr<const OptimalPriorityQueue> queue;
    /// False iff this call ran the Algorithm 2 enumeration itself.
    bool hit = false;
  };

  explicit OpqCache(OpqCacheOptions options = {});
  OpqCache(const OpqCache&) = delete;
  OpqCache& operator=(const OpqCache&) = delete;

  /// Returns the memoized queue whose key interval holds the threshold's
  /// decision key, building it on first use. The queue equals a fresh
  /// BuildOpq at `threshold` element for element; its theta() is that of
  /// the build that made it. A failed build is memoized too, under the
  /// exact threshold (same inputs would fail the same way), and its Status
  /// is returned to every caller of that threshold.
  ///
  /// `salt` is folded into the profile's fingerprint and stored with its
  /// entries: callers serving many platforms pass a per-(platform, epoch)
  /// salt so structurally identical profiles from different platforms (or
  /// epochs of one platform) never share an entry, and EvictBySalt can
  /// drop exactly one platform-epoch's entries.
  Result<Lookup> GetOrBuild(const BinProfile& profile, double threshold,
                            const OpqBuildOptions& options = {},
                            uint64_t salt = 0);

  /// Number of entries currently held (built intervals plus failures).
  size_t size() const;

  /// Cumulative lookup counters across the cache's lifetime (they survive
  /// Clear(); use ResetStats() to zero them).
  uint64_t hits() const;
  uint64_t misses() const;

  /// Full counter + occupancy snapshot.
  CacheStats stats() const;

  /// Drops all entries. Queues already handed out remain valid (shared
  /// ownership). Lifetime counters (hits/misses/evictions/collisions) are
  /// NOT touched -- a long-running server clearing its cache keeps honest
  /// cumulative stats.
  void Clear();

  /// Drops every entry inserted under `salt`, leaving all other entries
  /// (and their recency order) untouched. Returns the number of entries
  /// evicted. This is how an epoch promotion invalidates exactly the
  /// retired (platform, epoch)'s builds and nothing else; queues already
  /// handed out remain valid through their shared_ptr.
  size_t EvictBySalt(uint64_t salt);

  /// Zeroes the lifetime counters without touching the entries.
  void ResetStats();

  const OpqCacheOptions& options() const { return options_; }

  /// Structural fingerprint of a profile: hash over every bin's
  /// (cardinality, confidence, cost). Exposed for tests.
  static uint64_t ProfileFingerprint(const BinProfile& profile);

 private:
  /// One memoized build: a queue answering every key of its interval, or
  /// a failure answering its exact threshold.
  struct Entry {
    std::shared_ptr<const OptimalPriorityQueue> queue;  ///< null on failure
    Status error;
    uint64_t threshold_bits = 0;  ///< a failure's key
    uint64_t charged_bytes = 0;   ///< what eviction must release
    uint64_t last_used = 0;       ///< global tick of the latest touch
  };

  /// Every entry of one (masked fingerprint, salt, profile).
  struct Group {
    Group(uint64_t salt, std::vector<TaskBin> bins)
        : salt(salt), profile_bins(std::move(bins)) {}

    // Immutable after creation.
    const uint64_t salt;  ///< caller-supplied namespace (platform epoch)
    const std::vector<TaskBin> profile_bins;  ///< collision guard

    /// Builds of this profile run one at a time.
    std::mutex build_mutex;

    // Guarded by the owning shard's mutex.
    bool resident = true;        ///< still linked into the shard
    uint64_t charged_bytes = 0;  ///< the profile copy's charge
    /// Built entries by their key interval's hi; the intervals are
    /// disjoint, so the first hi >= key is the only candidate.
    std::map<double, Entry> built;
    /// Failures by the threshold's bit pattern.
    std::map<uint64_t, Entry> failed;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Masked fingerprint -> chained groups (one per structurally distinct
    /// profile or salt).
    std::unordered_multimap<uint64_t, std::shared_ptr<Group>> groups;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t collisions = 0;
  };

  /// The entry answering (key, threshold_bits) in `group`, or null; a
  /// threshold without a valid key only matches failures. Requires the
  /// shard mutex.
  static Entry* FindLocked(Group& group, bool valid, double key,
                           uint64_t threshold_bits);
  /// Touches `entry`, counts a hit and returns what it memoized. Requires
  /// the shard mutex.
  Result<Lookup> HitLocked(Shard* shard, Entry* entry);
  /// Empties `group`, releases every charge it holds and marks it no
  /// longer resident; the caller unlinks it from the shard. Returns its
  /// entry count. Requires the shard mutex.
  size_t DropGroupLocked(Group* group);
  /// Evicts the globally stalest entries other than `keep` until the
  /// governor is back under capacity (or nothing is evictable). Call
  /// without any shard lock held.
  void EnforceCapacity(const Entry* keep);

  const OpqCacheOptions options_;
  ResourceGovernor governor_;
  std::atomic<uint64_t> tick_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Aggregate Algorithm 2 build cost (lifetime counters, like hit/miss:
  /// Clear() keeps them, ResetStats() zeroes them). Builds are rare and
  /// long next to a mutex acquisition, so one mutex is plenty.
  mutable std::mutex build_stats_mutex_;
  uint64_t builds_ = 0;
  OpqBuildStats build_stats_;
  double build_seconds_ = 0.0;
};

}  // namespace slade

#endif  // SLADE_ENGINE_OPQ_CACHE_H_
