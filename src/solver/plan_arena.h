// Copyright (c) the SLADE reproduction authors.
// The arena that backs decomposition plan columns (see solver/plan.h).
//
// OPQ *construction* is allocation-free (opq_builder.h); this file does the
// same for plan *materialization* and everything downstream of it.
// PlanArena is a chunked bump allocator that is
//   * reserve-friendly -- Combination::ExpandBlocksInto sizes a whole
//     assignment up front, so the steady state is one chunk and zero
//     per-placement allocations;
//   * reset-reusable -- Reset() rewinds the arena without freeing, so a
//     serving loop stamping plans round after round allocates only on the
//     first round;
//   * byte-charged -- an optional ResourceGovernor is charged per chunk,
//     making plan-materialization memory visible in the same ledger that
//     already bounds the OPQ cache and the admission queue.
// ArenaColumn is one growable typed column inside such an arena.

#ifndef SLADE_SOLVER_PLAN_ARENA_H_
#define SLADE_SOLVER_PLAN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace slade {

class ResourceGovernor;

/// \brief Chunked bump allocator backing DecompositionPlan columns.
///
/// Allocate() never frees; Reset() rewinds every chunk for reuse without
/// returning memory (or governor charges). Chunks grow geometrically from
/// `min_chunk_bytes` up to `max_chunk_bytes`, so allocation count is
/// O(log bytes) even without a Reserve. Not thread-safe: one arena belongs
/// to one plan (engine shards each stamp their own).
///
/// Chunks outlive any single arena: a dying arena returns its chunks to a
/// process-wide pool, and AddChunk satisfies new demand
/// from that pool before touching the system allocator. Large chunks are
/// the ones glibc serves by mmap, so without pooling every solve batch
/// would re-fault and re-zero its plan memory from the kernel -- with it,
/// a serving loop reaches a steady state where plan materialization does
/// no system allocation at all. The pool holds at most kMaxPooledBytes
/// (drop-on-overflow, LIFO reuse); PlanArenaPoolStats()/TrimPlanArenaPool()
/// expose it for tests and memory-pressure handling.
class PlanArena {
 public:
  static constexpr size_t kMinChunkBytes = 4096;
  static constexpr size_t kMaxChunkBytes = size_t{1} << 22;  // 4 MiB
  /// Cap on idle bytes retained by the process-wide chunk pool.
  static constexpr size_t kMaxPooledBytes = size_t{1} << 27;  // 128 MiB

  /// `governor` (may be null) is charged `capacity` bytes / 1 unit per
  /// chunk and released when the arena dies or the governor is detached.
  /// It must outlive the arena (or be detached first).
  explicit PlanArena(ResourceGovernor* governor = nullptr);
  ~PlanArena();

  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never fails short of std::bad_alloc.
  void* Allocate(size_t bytes, size_t alignment);

  /// Uninitialized storage for `n` trivially copyable `T` (the batch
  /// engine's routing scratch and the splitter's per-id tables).
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk for reuse. Existing allocations become invalid;
  /// memory and governor charges are retained, so the next fill of the
  /// same shape allocates nothing.
  void Reset();

  /// Releases the governor charges and forgets the governor (used when an
  /// arena-backed plan escapes the governor's owner, e.g. a BatchReport
  /// returned to the caller). Peak counters on the governor retain the
  /// high-water mark.
  void DetachGovernor();

  size_t num_chunks() const { return chunks_.size(); }
  uint64_t reserved_bytes() const { return reserved_bytes_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  /// Makes chunks_[active_] (possibly a new chunk) able to hold `bytes`.
  void AddChunk(size_t min_bytes);

  /// Returns every chunk to the process-wide pool and releases the
  /// governor charges (the destructor's body).
  void ReleaseChunks();

  ResourceGovernor* governor_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;  ///< chunks_[active_] takes the next allocation
  uint64_t reserved_bytes_ = 0;
};

/// Observability for the process-wide chunk pool (see PlanArena).
struct PlanArenaPoolCounters {
  uint64_t pooled_bytes = 0;   ///< idle bytes currently held
  uint64_t pooled_chunks = 0;  ///< idle chunks currently held
  uint64_t reuse_hits = 0;     ///< AddChunk demands served from the pool
  uint64_t reuse_misses = 0;   ///< AddChunk demands that hit operator new
};
PlanArenaPoolCounters PlanArenaPoolStats();

/// Frees every idle pooled chunk (memory-pressure hook; counters for
/// lifetime hits/misses are retained).
void TrimPlanArenaPool();

/// \brief One growable typed column inside a PlanArena.
///
/// A grow moves the column to a fresh arena block (the old block is wasted
/// until Reset -- reservation makes growth rare); clear() keeps capacity.
template <typename T>
class ArenaColumn {
 public:
  const T* data() const { return data_; }
  T* data() { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& operator[](size_t i) { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  /// Grows capacity to at least `n`. A relocation doubles the current
  /// capacity at minimum, so a caller that conservatively Reserves exact
  /// totals before every append (e.g. per ExpandBlocksInto call, or
  /// AppendColumns in a merge loop) still amortizes to O(1) copies per
  /// element instead of relocating the whole column each time.
  void Reserve(PlanArena& arena, size_t n) {
    if (n <= capacity_) return;
    const size_t target = n > capacity_ * 2 ? n : capacity_ * 2;
    T* grown =
        static_cast<T*>(arena.Allocate(target * sizeof(T), alignof(T)));
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = target;
  }

  /// Appends `n` default-stamped slots and returns the write pointer.
  T* AppendN(PlanArena& arena, size_t n) {
    if (size_ + n > capacity_) Grow(arena, size_ + n);
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  void PushBack(PlanArena& arena, T value) {
    if (size_ == capacity_) Grow(arena, size_ + 1);
    data_[size_++] = value;
  }

  /// Forgets the storage entirely (after the owning arena was Reset).
  void Detach() {
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

 private:
  void Grow(PlanArena& arena, size_t needed) {
    size_t next = capacity_ == 0 ? size_t{64} : capacity_ * 2;
    if (next < needed) next = needed;
    Reserve(arena, next);
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace slade

#endif  // SLADE_SOLVER_PLAN_ARENA_H_
