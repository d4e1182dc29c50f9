#include "solver/plan_arena.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "engine/resource_governor.h"
#include "plan_signature.h"
#include "solver/plan.h"

namespace slade {
namespace {

// --- PlanArena -------------------------------------------------------------

TEST(PlanArenaTest, AllocationsAreAlignedAndDisjoint) {
  PlanArena arena;
  auto* a = static_cast<uint8_t*>(arena.Allocate(13, 1));
  auto* b = static_cast<uint64_t*>(arena.Allocate(8, 8));
  auto* c = static_cast<uint32_t*>(arena.Allocate(40, 4));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 4, 0u);
  // Writes through one pointer must not clobber the others.
  for (int i = 0; i < 13; ++i) a[i] = 0xAB;
  *b = 0x0123456789ABCDEFull;
  for (int i = 0; i < 10; ++i) c[i] = 7u;
  EXPECT_EQ(a[12], 0xAB);
  EXPECT_EQ(*b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c[9], 7u);
}

TEST(PlanArenaTest, ChunksGrowGeometricallyNotPerAllocation) {
  PlanArena arena;
  // 1 MiB of small allocations: chunk count must stay logarithmic (4 KiB
  // doubling to 4 MiB covers 1 MiB in well under 12 chunks), nowhere near
  // the 16384 allocations made.
  for (int i = 0; i < 16384; ++i) arena.Allocate(64, 8);
  EXPECT_LE(arena.num_chunks(), 12u);
  EXPECT_GE(arena.reserved_bytes(), 16384u * 64u);
}

TEST(PlanArenaTest, OversizedRequestGetsItsOwnChunk) {
  PlanArena arena;
  void* p = arena.Allocate(16u << 20, 8);  // 16 MiB > kMaxChunkBytes
  EXPECT_NE(p, nullptr);
  EXPECT_GE(arena.reserved_bytes(), 16u << 20);
}

TEST(PlanArenaTest, ResetReusesMemoryWithoutNewChunks) {
  PlanArena arena;
  for (int i = 0; i < 1000; ++i) arena.Allocate(64, 8);
  const size_t chunks = arena.num_chunks();
  const uint64_t bytes = arena.reserved_bytes();
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    for (int i = 0; i < 1000; ++i) arena.Allocate(64, 8);
  }
  EXPECT_EQ(arena.num_chunks(), chunks);
  EXPECT_EQ(arena.reserved_bytes(), bytes);
}

TEST(PlanArenaTest, GovernorIsChargedPerChunkAndReleasedOnDestruction) {
  ResourceGovernor governor(/*max_bytes=*/0, /*max_units=*/0);
  {
    PlanArena arena(&governor);
    arena.Allocate(100, 8);
    const GovernorCounters during = governor.counters();
    EXPECT_EQ(during.bytes, arena.reserved_bytes());
    EXPECT_EQ(during.units, arena.num_chunks());
    // Reset keeps the memory, so the charges stay too.
    arena.Reset();
    EXPECT_EQ(governor.counters().bytes, during.bytes);
  }
  const GovernorCounters after = governor.counters();
  EXPECT_EQ(after.bytes, 0u);
  EXPECT_EQ(after.units, 0u);
  EXPECT_GT(after.peak_bytes, 0u);  // high-water mark survives
}

TEST(PlanArenaTest, DetachGovernorReleasesChargesEarly) {
  ResourceGovernor governor(0, 0);
  PlanArena arena(&governor);
  arena.Allocate(100, 8);
  EXPECT_GT(governor.counters().bytes, 0u);
  arena.DetachGovernor();
  EXPECT_EQ(governor.counters().bytes, 0u);
  // Further growth after the detach never touches the governor.
  for (int i = 0; i < 1000; ++i) arena.Allocate(4096, 8);
  EXPECT_EQ(governor.counters().bytes, 0u);
}

TEST(PlanArenaTest, DyingArenaRecyclesChunksIntoProcessPool) {
  TrimPlanArenaPool();
  uint64_t retired_bytes = 0;
  {
    PlanArena arena;
    for (int i = 0; i < 1000; ++i) arena.Allocate(4096, 8);
    retired_bytes = arena.reserved_bytes();
  }
  const PlanArenaPoolCounters after = PlanArenaPoolStats();
  EXPECT_EQ(after.pooled_bytes, retired_bytes);
  EXPECT_GT(after.pooled_chunks, 0u);

  // A successor arena of the same shape is served from the pool: idle
  // bytes drain back out and hits advance, with no new system chunks
  // beyond what the pool could not cover.
  {
    PlanArena arena;
    for (int i = 0; i < 1000; ++i) arena.Allocate(4096, 8);
    const PlanArenaPoolCounters during = PlanArenaPoolStats();
    EXPECT_LT(during.pooled_bytes, after.pooled_bytes);
    EXPECT_GT(during.reuse_hits, after.reuse_hits);
  }
  TrimPlanArenaPool();
  EXPECT_EQ(PlanArenaPoolStats().pooled_bytes, 0u);
}

TEST(PlanArenaTest, PoolDropsChunksBeyondByteCap) {
  TrimPlanArenaPool();
  // Retire more than kMaxPooledBytes of chunk memory; the pool must hold
  // the cap, not the total.
  const size_t big = PlanArena::kMaxChunkBytes;
  const size_t rounds = PlanArena::kMaxPooledBytes / big + 8;
  for (size_t i = 0; i < rounds; ++i) {
    PlanArena arena;
    arena.Allocate(big - 64, 8);
  }
  EXPECT_LE(PlanArenaPoolStats().pooled_bytes, PlanArena::kMaxPooledBytes);
  TrimPlanArenaPool();
}

// --- DecompositionPlan columns ---------------------------------------------

TEST(DecompositionPlanTest, AddAndViewRoundTrip) {
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});
  plan.Add(2, 1, {3, 4});
  plan.Add(1, 5, {5});
  ASSERT_EQ(plan.num_placements(), 3u);
  EXPECT_EQ(plan.num_task_ids(), 6u);
  const DecompositionPlan::PlacementView v0 = plan.view(0);
  EXPECT_EQ(v0.cardinality, 3u);
  EXPECT_EQ(v0.copies, 2u);
  ASSERT_EQ(v0.num_tasks, 3u);
  EXPECT_EQ(v0.tasks[2], 2u);
  const DecompositionPlan::PlacementView v2 = plan.view(2);
  EXPECT_EQ(v2.cardinality, 1u);
  EXPECT_EQ(v2.copies, 5u);
  ASSERT_EQ(v2.num_tasks, 1u);
  EXPECT_EQ(v2.tasks[0], 5u);
}

TEST(DecompositionPlanTest, AppendColumnsConcatenatesInOrder) {
  DecompositionPlan a;
  a.Add(2, 1, {0, 1});
  DecompositionPlan b;
  b.Add(3, 2, {2, 3, 4});
  b.Add(1, 1, {5});
  a.AppendColumns(b);
  EXPECT_EQ(PlanSignature(a), "2x1:0;1;|3x2:2;3;4;|1x1:5;|");
}

TEST(DecompositionPlanTest, AppendRangeShiftsIdsAndSlicesPlacements) {
  DecompositionPlan src;
  src.Add(2, 1, {10, 11});
  src.Add(3, 2, {12, 13, 14});
  src.Add(1, 1, {15});
  DecompositionPlan dst;
  dst.AppendRange(src, 1, 2, /*id_delta=*/-12);
  EXPECT_EQ(PlanSignature(dst), "3x2:0;1;2;|1x1:3;|");
}

TEST(DecompositionPlanTest, DeepCopyIsIndependent) {
  DecompositionPlan a;
  a.Add(2, 1, {0, 1});
  DecompositionPlan b = a;
  b.Add(1, 1, {2});
  EXPECT_EQ(a.num_placements(), 1u);
  EXPECT_EQ(b.num_placements(), 2u);
  EXPECT_EQ(PlanSignature(a), "2x1:0;1;|");
  a = b;
  EXPECT_EQ(PlanSignature(a), PlanSignature(b));
}

TEST(DecompositionPlanTest, ClearRewindsArenaForReuse) {
  DecompositionPlan plan;
  std::vector<TaskId> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TaskId>(i);
  for (int i = 0; i < 100; ++i) plan.Add(4, 1, ids.data(), 4);
  const uint64_t bytes = plan.arena().reserved_bytes();
  const size_t chunks = plan.arena().num_chunks();
  for (int round = 0; round < 5; ++round) {
    plan.Clear();
    EXPECT_TRUE(plan.empty());
    for (int i = 0; i < 100; ++i) plan.Add(4, 1, ids.data(), 4);
  }
  EXPECT_EQ(plan.arena().reserved_bytes(), bytes);
  EXPECT_EQ(plan.arena().num_chunks(), chunks);
}

TEST(DecompositionPlanTest, BulkStampingAllocatesChunksNotPlacements) {
  // 20k placements of 4 ids each through a reserved plan: the arena must
  // hold everything in a handful of chunks.
  DecompositionPlan plan;
  plan.Reserve(20000, 80000);
  std::vector<TaskId> ids = {0, 1, 2, 3};
  for (int i = 0; i < 20000; ++i) plan.Add(4, 1, ids.data(), ids.size());
  EXPECT_EQ(plan.num_placements(), 20000u);
  EXPECT_LE(plan.arena().num_chunks(), 4u);
}

}  // namespace
}  // namespace slade
