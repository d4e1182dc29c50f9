#include "solver/plan_arena.h"

#include <algorithm>
#include <mutex>

#include "engine/resource_governor.h"

namespace slade {

namespace {

/// Process-wide recycler for retired arena chunks. Large chunks are the
/// ones glibc serves straight from mmap, so without recycling every batch
/// solve re-faults and re-zeroes its plan memory from the kernel; the pool
/// keeps those pages warm across arena lifetimes.
///
/// Idle chunks sit in power-of-two size-class free lists (bucket b holds
/// capacities in [2^b, 2^(b+1))); Acquire pops LIFO from the smallest
/// class that guarantees the demand, so a split pass retiring tens of
/// thousands of 4 KiB slice chunks never degrades acquire beyond the
/// O(log) bucket scan. LIFO reuse favors the most recently touched
/// (cache- and TLB-warm) chunks; Recycle drops chunks on the floor once
/// kMaxPooledBytes of idle memory is held.
class ChunkPool {
 public:
  static ChunkPool& Instance() {
    static ChunkPool* pool = new ChunkPool();  // never destroyed: arenas
    return *pool;  // in static objects may recycle after exit begins
  }

  /// Pops an idle chunk holding >= `min_bytes` from the smallest
  /// sufficient size class. Returns null (and counts a miss) when every
  /// such class is empty.
  std::unique_ptr<unsigned char[]> Acquire(size_t min_bytes,
                                           size_t* capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    // Every chunk in bucket >= ceil(log2(min_bytes)) has capacity >=
    // min_bytes. (A bucket-floor chunk with capacity in
    // [min_bytes, 2^ceil) is skipped -- arena capacities are almost
    // always exact powers of two, so the loss is negligible.)
    for (size_t b = CeilLog2(min_bytes); b < kNumBuckets; ++b) {
      std::vector<Idle>& bucket = buckets_[b];
      if (bucket.empty()) continue;
      ++hits_;
      Idle idle = std::move(bucket.back());
      bucket.pop_back();
      pooled_bytes_ -= idle.capacity;
      --pooled_chunks_;
      *capacity = idle.capacity;
      return std::move(idle.data);
    }
    ++misses_;
    return nullptr;
  }

  void Recycle(std::unique_ptr<unsigned char[]> data, size_t capacity) {
    if (data == nullptr || capacity == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (pooled_bytes_ + capacity > PlanArena::kMaxPooledBytes) return;
    pooled_bytes_ += capacity;
    ++pooled_chunks_;
    buckets_[FloorLog2(capacity)].push_back(Idle{std::move(data), capacity});
  }

  PlanArenaPoolCounters Stats() {
    std::lock_guard<std::mutex> lock(mu_);
    PlanArenaPoolCounters out;
    out.pooled_bytes = pooled_bytes_;
    out.pooled_chunks = pooled_chunks_;
    out.reuse_hits = hits_;
    out.reuse_misses = misses_;
    return out;
  }

  void Trim() {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::vector<Idle>& bucket : buckets_) bucket.clear();
    pooled_bytes_ = 0;
    pooled_chunks_ = 0;
  }

 private:
  static constexpr size_t kNumBuckets = 64;

  struct Idle {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;
  };

  static size_t FloorLog2(size_t v) {
    size_t b = 0;
    while (v >>= 1) ++b;
    return b;
  }

  static size_t CeilLog2(size_t v) {
    const size_t floor = FloorLog2(v);
    return (size_t{1} << floor) == v ? floor : floor + 1;
  }

  std::mutex mu_;
  std::vector<Idle> buckets_[kNumBuckets];
  uint64_t pooled_bytes_ = 0;
  uint64_t pooled_chunks_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace

PlanArenaPoolCounters PlanArenaPoolStats() {
  return ChunkPool::Instance().Stats();
}

void TrimPlanArenaPool() { ChunkPool::Instance().Trim(); }

PlanArena::PlanArena(ResourceGovernor* governor) : governor_(governor) {}

PlanArena::~PlanArena() { ReleaseChunks(); }

void PlanArena::ReleaseChunks() {
  DetachGovernor();
  for (Chunk& chunk : chunks_) {
    ChunkPool::Instance().Recycle(std::move(chunk.data), chunk.capacity);
  }
  chunks_.clear();
  active_ = 0;
  reserved_bytes_ = 0;
}

void PlanArena::DetachGovernor() {
  if (governor_ == nullptr) return;
  governor_->Release(reserved_bytes_, chunks_.size());
  governor_ = nullptr;
}

void* PlanArena::Allocate(size_t bytes, size_t alignment) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (active_ < chunks_.size()) {
      Chunk& chunk = chunks_[active_];
      const size_t aligned =
          (chunk.used + alignment - 1) & ~(alignment - 1);
      if (aligned + bytes <= chunk.capacity) {
        chunk.used = aligned + bytes;
        return chunk.data.get() + aligned;
      }
      // The active chunk is full; after a Reset() the next retained chunk
      // may still have room, otherwise a new one is grown below.
      ++active_;
      continue;
    }
    AddChunk(bytes + alignment);
  }
}

void PlanArena::AddChunk(size_t min_bytes) {
  size_t capacity = kMinChunkBytes;
  if (!chunks_.empty()) {
    capacity = std::min(chunks_.back().capacity * 2, kMaxChunkBytes);
  }
  capacity = std::max(capacity, min_bytes);
  Chunk chunk;
  // A recycled chunk keeps its (possibly larger) capacity; the governor is
  // charged for what the arena actually holds either way.
  chunk.data = ChunkPool::Instance().Acquire(capacity, &capacity);
  if (chunk.data == nullptr) {
    // Default-initialized (not value-initialized): columns stamp every
    // byte they expose, so zeroing fresh chunks would be pure waste.
    chunk.data.reset(new unsigned char[capacity]);
  }
  chunk.capacity = capacity;
  chunks_.push_back(std::move(chunk));
  active_ = chunks_.size() - 1;
  reserved_bytes_ += capacity;
  if (governor_ != nullptr) governor_->Charge(capacity, 1);
}

void PlanArena::Reset() {
  for (Chunk& chunk : chunks_) chunk.used = 0;
  active_ = 0;
}

}  // namespace slade
