#include "engine/opq_cache.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"
#include "common/stopwatch.h"

namespace slade {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Approximate bookkeeping cost of one entry, or one profile, beyond what
/// it holds: its map node and its share of the index.
constexpr uint64_t kNodeOverheadBytes = 128;

bool SameProfile(const std::vector<TaskBin>& a, const BinProfile& b) {
  const std::vector<TaskBin>& bins = b.bins();
  if (a.size() != bins.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cardinality != bins[i].cardinality ||
        a[i].confidence != bins[i].confidence || a[i].cost != bins[i].cost) {
      return false;
    }
  }
  return true;
}

OpqCacheOptions Sanitized(OpqCacheOptions options) {
  if (options.num_shards == 0) options.num_shards = 1;
  // More shards than entry slots buys nothing, so a tiny cache collapses
  // to fewer shards.
  if (options.max_entries != 0 &&
      static_cast<uint64_t>(options.num_shards) > options.max_entries) {
    options.num_shards = static_cast<uint32_t>(options.max_entries);
  }
  return options;
}

}  // namespace

uint64_t OpqCache::ProfileFingerprint(const BinProfile& profile) {
  uint64_t h = UINT64_C(0x51ade);
  for (const TaskBin& bin : profile.bins()) {
    h = HashCombine(h, bin.cardinality);
    h = HashCombine(h, DoubleBits(bin.confidence));
    h = HashCombine(h, DoubleBits(bin.cost));
  }
  return h;
}

OpqCache::OpqCache(OpqCacheOptions options)
    : options_(Sanitized(options)),
      governor_(options_.max_bytes, options_.max_entries) {
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

OpqCache::Entry* OpqCache::FindLocked(Group& group, bool valid, double key,
                                      uint64_t threshold_bits) {
  if (valid) {
    const auto it = group.built.lower_bound(key);  // first hi >= key
    if (it != group.built.end() &&
        it->second.queue->key_interval().lo < key) {
      return &it->second;
    }
  }
  const auto it = group.failed.find(threshold_bits);
  return it == group.failed.end() ? nullptr : &it->second;
}

Result<OpqCache::Lookup> OpqCache::HitLocked(Shard* shard, Entry* entry) {
  entry->last_used = tick_.fetch_add(1) + 1;
  shard->hits += 1;
  if (entry->queue == nullptr) return entry->error;
  return Lookup{entry->queue, /*hit=*/true};
}

size_t OpqCache::DropGroupLocked(Group* group) {
  const size_t entries = group->built.size() + group->failed.size();
  uint64_t bytes = group->charged_bytes;
  for (const auto& [hi, entry] : group->built) bytes += entry.charged_bytes;
  for (const auto& [bits, entry] : group->failed) {
    bytes += entry.charged_bytes;
  }
  governor_.Release(bytes, entries);
  group->built.clear();
  group->failed.clear();
  group->resident = false;
  return entries;
}

void OpqCache::EnforceCapacity(const Entry* keep) {
  if (!governor_.OverCapacity()) return;
  // Every shard is locked, in index order. Lookups hold one shard mutex at
  // a time and never wait for another while holding it, so the ordered
  // acquisition cannot deadlock against them.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  while (governor_.OverCapacity()) {
    Shard* victim_shard = nullptr;
    decltype(Shard::groups)::iterator victim_group;
    Entry* victim = nullptr;
    for (const auto& shard : shards_) {
      for (auto g = shard->groups.begin(); g != shard->groups.end(); ++g) {
        const auto consider = [&](Entry& entry) {
          if (&entry == keep) return;
          if (victim == nullptr || entry.last_used < victim->last_used) {
            victim = &entry;
            victim_shard = shard.get();
            victim_group = g;
          }
        };
        for (auto& [hi, entry] : g->second->built) consider(entry);
        for (auto& [bits, entry] : g->second->failed) consider(entry);
      }
    }
    if (victim == nullptr) return;  // nothing but `keep` is left

    Group& group = *victim_group->second;
    governor_.Release(victim->charged_bytes, 1);
    if (victim->queue != nullptr) {
      group.built.erase(victim->queue->key_interval().hi);
    } else {
      group.failed.erase(victim->threshold_bits);
    }
    victim_shard->evictions += 1;
    if (group.built.empty() && group.failed.empty()) {
      DropGroupLocked(&group);  // its profile copy goes with its last entry
      victim_shard->groups.erase(victim_group);
    }
  }
}

Result<OpqCache::Lookup> OpqCache::GetOrBuild(const BinProfile& profile,
                                              double threshold,
                                              const OpqBuildOptions& options,
                                              uint64_t salt) {
  // The salt is folded in before the mask so the fingerprint_mask test
  // hook can still force cross-salt collisions onto one key; the
  // structural guard below then disambiguates on (salt, bins).
  const uint64_t fingerprint =
      HashCombine(ProfileFingerprint(profile), salt) & options_.fingerprint_mask;
  Shard& shard = *shards_[fingerprint % shards_.size()];
  // Validated before the key is computed: LogReduction(1.5) is NaN. An
  // invalid threshold is memoized under its exact bits, like a failure.
  const bool valid = threshold > 0.0 && threshold < 1.0;
  const double key = valid ? OpqDecisionKey(threshold) : 0.0;
  const uint64_t threshold_bits = DoubleBits(threshold);

  std::shared_ptr<Group> group;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [first, last] = shard.groups.equal_range(fingerprint);
    for (auto it = first; it != last; ++it) {
      if (it->second->salt == salt &&
          SameProfile(it->second->profile_bins, profile)) {
        group = it->second;
        break;
      }
    }
    if (group != nullptr) {
      if (Entry* entry = FindLocked(*group, valid, key, threshold_bits)) {
        return HitLocked(&shard, entry);
      }
    } else {
      if (first != last) shard.collisions += 1;
      group = std::make_shared<Group>(salt, profile.bins());
      group->charged_bytes = sizeof(Group) + kNodeOverheadBytes +
                             group->profile_bins.capacity() * sizeof(TaskBin);
      governor_.Charge(group->charged_bytes, 0);
      shard.groups.emplace(fingerprint, group);
    }
  }

  // A miss so far. Builds of one profile run one at a time, and a lookup
  // that waited for one searches again: an interval is built at most once
  // while it is resident. The shard lock is not held across the build, so
  // hits and other profiles proceed.
  std::lock_guard<std::mutex> build_lock(group->build_mutex);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (Entry* entry = FindLocked(*group, valid, key, threshold_bits)) {
      return HitLocked(&shard, entry);
    }
    shard.misses += 1;
  }
  OpqBuildStats stats;
  Stopwatch build_watch;
  auto built = BuildOpq(profile, threshold, options, &stats);
  {
    std::lock_guard<std::mutex> stats_lock(build_stats_mutex_);
    builds_ += 1;
    build_stats_.Accumulate(stats);
    build_seconds_ += build_watch.ElapsedSeconds();
  }

  Entry entry;
  if (built.ok()) {
    entry.queue = std::make_shared<const OptimalPriorityQueue>(
        std::move(built).ValueOrDie());
  } else {
    entry.error = built.status();
    entry.threshold_bits = threshold_bits;
  }
  entry.charged_bytes =
      sizeof(Entry) + kNodeOverheadBytes +
      (entry.queue != nullptr ? entry.queue->EstimatedBytes() : 0);
  Result<Lookup> result =
      entry.queue != nullptr
          ? Result<Lookup>(Lookup{entry.queue, /*hit=*/false})
          : Result<Lookup>(entry.error);

  const Entry* inserted = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A profile dropped while building (Clear, EvictBySalt, eviction of its
    // last entry) keeps nothing: the queue lives on only through the
    // shared_ptr handed out here.
    if (group->resident) {
      entry.last_used = tick_.fetch_add(1) + 1;
      // The slot can already be taken only by a build under other
      // options whose interval overlaps this one; the resident entry
      // stays, and nothing is charged twice.
      const auto insert = [&](auto& entries, auto slot) -> const Entry* {
        const auto [it, fresh] = entries.try_emplace(slot, std::move(entry));
        return fresh ? &it->second : nullptr;
      };
      inserted = entry.queue != nullptr
                     ? insert(group->built, entry.queue->key_interval().hi)
                     : insert(group->failed, threshold_bits);
      if (inserted != nullptr) governor_.Charge(inserted->charged_bytes, 1);
    }
  }
  if (inserted != nullptr) EnforceCapacity(inserted);
  return result;
}

size_t OpqCache::size() const {
  return static_cast<size_t>(governor_.counters().units);
}

uint64_t OpqCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->hits;
  }
  return total;
}

uint64_t OpqCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->misses;
  }
  return total;
}

CacheStats OpqCache::stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.collisions += shard->collisions;
  }
  const GovernorCounters counters = governor_.counters();
  stats.entries = counters.units;
  stats.bytes = counters.bytes;
  stats.peak_bytes = counters.peak_bytes;
  stats.peak_entries = counters.peak_units;
  {
    std::lock_guard<std::mutex> lock(build_stats_mutex_);
    stats.builds = builds_;
    stats.build_stats = build_stats_;
    stats.build_seconds = build_seconds_;
  }
  return stats;
}

void OpqCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [fingerprint, group] : shard->groups) {
      DropGroupLocked(group.get());
    }
    shard->groups.clear();
  }
}

size_t OpqCache::EvictBySalt(uint64_t salt) {
  size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->groups.begin(); it != shard->groups.end();) {
      if (it->second->salt != salt) {
        ++it;
        continue;
      }
      const size_t dropped = DropGroupLocked(it->second.get());
      shard->evictions += dropped;
      evicted += dropped;
      it = shard->groups.erase(it);
    }
  }
  return evicted;
}

void OpqCache::ResetStats() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
    shard->collisions = 0;
  }
  std::lock_guard<std::mutex> lock(build_stats_mutex_);
  builds_ = 0;
  build_stats_ = OpqBuildStats{};
  build_seconds_ = 0.0;
}

}  // namespace slade
