// Copyright (c) the SLADE reproduction authors.
// Memoized optimal-priority-queue builds, keyed by (profile, threshold).
//
// Building an OPQ (Algorithm 2) is the expensive, input-independent part of
// the OPQ-Based/OPQ-Extended solvers: it depends only on the bin profile and
// the reliability threshold, never on which atomic tasks are being assigned.
// A batch of crowdsourcing tasks drawn from the same platform therefore
// re-requests the same handful of (profile, threshold) keys over and over;
// this cache makes every repeat a map lookup instead of a DFS enumeration.
//
// The cache is capacity-bounded: a ResourceGovernor tracks estimated bytes
// (OptimalPriorityQueue::EstimatedBytes plus entry overhead) and entry
// counts globally, and least-recently-used entries are evicted while the
// cache is over an OpqCacheOptions limit. Entries live in N lock shards so
// solver threads looking up distinct keys do not serialize on one mutex;
// recency is a global monotonic tick stamped on every touch, and eviction
// approximates global LRU by comparing the tails of all shards and
// evicting the stalest -- locking one shard at a time, so eviction can
// never deadlock against lookups. OPQ entries are small and builds are
// expensive, so the scan cost is noise next to what a wrong eviction would
// waste. The entry just inserted or touched by the running lookup is never
// evicted by that same lookup (the working key stays served even when it
// alone exceeds the budget). Eviction never invalidates a queue a solver
// already holds: queues are handed out as shared_ptr<const ...>.

#ifndef SLADE_ENGINE_OPQ_CACHE_H_
#define SLADE_ENGINE_OPQ_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
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
  /// Lock shards; floored at 1, clamped to max_entries when that is set.
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
  /// Lookups whose fingerprint matched an entry with a structurally
  /// different profile (each such lookup built a distinct chained entry).
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
/// Keys are (masked profile fingerprint, threshold bit pattern); on a
/// fingerprint match the stored profile is compared structurally, so two
/// profiles colliding on the hash never share a queue -- the second gets
/// its own chained entry. Concurrent lookups of the same key build once;
/// the racers block on the entry and receive the shared queue. Queues are
/// handed out as shared_ptr<const ...>, so entries stay valid even if they
/// are evicted or the cache is cleared while a solve is in flight, and a
/// racer re-requesting an evicted key simply rebuilds a fresh entry.
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

  /// Returns the memoized queue for (profile, threshold), building it on
  /// first use. A failed build is memoized too (same inputs would fail the
  /// same way) and its Status is returned to every caller of the key.
  ///
  /// `salt` is folded into the fingerprint half of the key and stored on
  /// the entry: callers serving many platforms pass a per-(platform,
  /// epoch) salt so structurally identical profiles from different
  /// platforms (or epochs of one platform) never share an entry, and
  /// EvictBySalt can drop exactly one platform-epoch's entries.
  Result<Lookup> GetOrBuild(const BinProfile& profile, double threshold,
                            const OpqBuildOptions& options = {},
                            uint64_t salt = 0);

  /// Number of distinct entries currently held (built or failed).
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
  using Key = std::pair<uint64_t, uint64_t>;  // (fingerprint, threshold bits)

  struct Entry {
    // Immutable after creation.
    std::vector<TaskBin> profile_bins;  ///< structural identity (collision guard)
    uint64_t salt = 0;  ///< caller-supplied namespace (platform epoch)

    // Guarded by build_mutex.
    std::mutex build_mutex;
    bool done = false;
    std::shared_ptr<const OptimalPriorityQueue> queue;  // null on failure
    Status error;

    // Guarded by the owning shard's mutex.
    bool resident = true;        ///< still linked into the shard
    uint64_t charged_bytes = 0;  ///< what eviction must release
    uint64_t last_used = 0;      ///< global tick of the latest touch
  };

  struct Node {
    Key key;
    std::shared_ptr<Entry> entry;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Recency order, front = most recent. Eviction pops the back.
    std::list<Node> lru;
    /// Key -> chained entries (one per structurally distinct profile).
    std::map<Key, std::vector<std::list<Node>::iterator>> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t collisions = 0;
  };

  Shard& ShardOf(const Key& key);
  /// Unlinks the node at `it` from `shard`, releasing its governor charge
  /// and bumping the eviction counter. Requires shard.mutex held.
  void EvictNodeLocked(Shard* shard, std::list<Node>::iterator it);
  /// Evicts the globally stalest evictable entry (never `keep`); locks one
  /// shard at a time. Returns false when nothing but `keep` is left.
  bool EvictOneGlobal(const Entry* keep);
  /// Runs EvictOneGlobal until the governor is back under capacity (or
  /// nothing is evictable). Call without any shard lock held.
  void EnforceCapacity(const Entry* keep);
  /// Bytes charged for one resident entry once its build finished.
  static uint64_t EntryBytes(const Entry& entry);

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
