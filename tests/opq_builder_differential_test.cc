// Differential validation of the production iterative OPQ builder against
// the recursive reference enumerator it replaced: element-for-element
// identical queues, key intervals and build statistics on randomized
// (profile, threshold) pairs, in both pruning modes; unified node/budget
// accounting; survival of adversarially deep profiles that overflow the
// reference's call stack; and exactness of the key interval, against fresh
// builds inside it and at both of its ends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "binmodel/profile_model.h"
#include "common/math_util.h"
#include "common/random.h"
#include "solver/opq_builder.h"

namespace slade {
namespace {

BinProfile RandomProfile(uint32_t m, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<TaskBin> bins;
  double confidence = rng.NextDouble(0.8, 0.95);
  double cost = rng.NextDouble(0.05, 0.2);
  for (uint32_t l = 1; l <= m; ++l) {
    bins.push_back({l, confidence, cost});
    confidence = std::max(0.55, confidence - rng.NextDouble(0.0, 0.08));
    cost += rng.NextDouble(0.005, 0.08);
  }
  return BinProfile::Create(std::move(bins)).ValueOrDie();
}

// The acceptance bar: same size, and per element the same LCM, the same
// unit cost (bit-identical: both builders accumulate the same additions in
// the same order), and the same parts (counts per cardinality).
void ExpectIdentical(const OptimalPriorityQueue& fast,
                     const OptimalPriorityQueue& reference,
                     const std::string& label) {
  ASSERT_EQ(fast.size(), reference.size()) << label;
  for (size_t i = 0; i < fast.size(); ++i) {
    const Combination& a = fast.element(i);
    const Combination& b = reference.element(i);
    EXPECT_EQ(a.lcm(), b.lcm()) << label << " element " << i;
    EXPECT_EQ(a.unit_cost(), b.unit_cost()) << label << " element " << i;
    EXPECT_EQ(a.parts(), b.parts()) << label << " element " << i;
  }
  // Condition 1 + 2 of Definition 4 on the production queue: LCM strictly
  // descending, unit cost strictly ascending.
  for (size_t i = 1; i < fast.size(); ++i) {
    EXPECT_GT(fast.element(i - 1).lcm(), fast.element(i).lcm()) << label;
    EXPECT_LT(fast.element(i - 1).unit_cost(), fast.element(i).unit_cost())
        << label;
  }
}

TEST(OpqBuilderDifferentialTest, MatchesReferenceOnRandomizedPairs) {
  // >= 100 randomized (profile, threshold) pairs, each checked in both
  // pruning modes (the pruning-disabled ablation must agree too).
  Xoshiro256 rng(0x09d1ff);
  int pairs = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const uint32_t m = static_cast<uint32_t>(rng.NextInt(1, 10));
    const BinProfile profile = RandomProfile(m, seed * 7919);
    const double t = rng.NextDouble(0.82, 0.995);
    ++pairs;
    for (bool pruning : {true, false}) {
      OpqBuildOptions options;
      options.enable_partial_pruning = pruning;
      OpqBuildStats fast_stats, ref_stats;
      auto fast = BuildOpq(profile, t, options, &fast_stats);
      auto reference = BuildOpqReference(profile, t, options, &ref_stats);
      ASSERT_TRUE(fast.ok()) << fast.status().ToString();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      const std::string label = "seed=" + std::to_string(seed) +
                                " m=" + std::to_string(m) +
                                " t=" + std::to_string(t) +
                                (pruning ? " pruned" : " full");
      ExpectIdentical(*fast, *reference, label);
      // The enumerations are step-for-step equivalent, so every counter
      // and the key interval must agree exactly, not just the queues.
      EXPECT_EQ(fast->key_interval().lo, reference->key_interval().lo)
          << label;
      EXPECT_EQ(fast->key_interval().hi, reference->key_interval().hi)
          << label;
      EXPECT_TRUE(fast->key_interval().Contains(OpqDecisionKey(t))) << label;
      EXPECT_EQ(fast_stats.nodes_visited, ref_stats.nodes_visited) << label;
      EXPECT_EQ(fast_stats.nodes_pruned_dominated,
                ref_stats.nodes_pruned_dominated)
          << label;
      EXPECT_EQ(fast_stats.insertions, ref_stats.insertions) << label;
    }
  }
  EXPECT_GE(pairs, 100);
}

// Positive doubles order like their bit patterns, so bisecting the bits
// walks the thresholds one representable step at a time.
uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// The largest threshold in [a, b) whose decision key is <= `bound`, given
// OpqDecisionKey(a) <= bound < OpqDecisionKey(b).
double LastThresholdWithKeyAtMost(double bound, double a, double b) {
  uint64_t lo = Bits(a);
  uint64_t hi = Bits(b);
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (OpqDecisionKey(FromBits(mid)) <= bound) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return FromBits(lo);
}

TEST(OpqBuilderDifferentialTest, KeyIntervalIsExactInsideAndAtItsEnds) {
  // For builds at random thresholds on the paper's and the datasets'
  // profiles: fresh builds at random keys inside the reported interval and
  // at the thresholds whose keys lie closest inside each end return the
  // same queue and interval, and the builds just past either end report
  // an interval that starts (or stops) exactly there, so intervals tile.
  const BinProfile profiles[] = {
      BinProfile::PaperExample(), BuildProfile(JellyModel(), 10).ValueOrDie(),
      BuildProfile(SmicModel(), 8).ValueOrDie(),
      BuildProfile(SmicModel(), 20).ValueOrDie()};
  const double kFirst = std::numeric_limits<double>::denorm_min();
  const double kLast = std::nextafter(1.0, 0.0);
  Xoshiro256 rng(0x1e7e1);
  for (const BinProfile& profile : profiles) {
    for (int trial = 0; trial < 25; ++trial) {
      const double t = rng.NextDouble(0.55, 0.995);
      auto built = BuildOpq(profile, t);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const OpqKeyInterval interval = built->key_interval();
      const std::string label = "m=" +
                                std::to_string(profile.max_cardinality()) +
                                " t=" + std::to_string(t);
      ASSERT_TRUE(interval.Contains(OpqDecisionKey(t))) << label;
      auto reference = BuildOpqReference(profile, t);
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(reference->key_interval().lo, interval.lo) << label;
      EXPECT_EQ(reference->key_interval().hi, interval.hi) << label;

      const auto expect_same = [&](double probe, const std::string& where) {
        ASSERT_TRUE(interval.Contains(OpqDecisionKey(probe)))
            << label << " " << where;
        auto fresh = BuildOpq(profile, probe);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        ExpectIdentical(*fresh, *built, label + " " + where);
        EXPECT_EQ(fresh->key_interval().lo, interval.lo) << label << where;
        EXPECT_EQ(fresh->key_interval().hi, interval.hi) << label << where;
      };

      // Random interior keys, mapped back to thresholds.
      const double lo_key = std::isfinite(interval.lo)
                                ? interval.lo
                                : OpqDecisionKey(kFirst);
      for (int i = 0; i < 4; ++i) {
        const double key = rng.NextDouble(lo_key, interval.hi);
        const double probe = std::clamp(
            InverseLogReduction(key + kOpqBuildEps), kFirst, kLast);
        if (!interval.Contains(OpqDecisionKey(probe))) continue;
        expect_same(probe, "interior");
      }

      // The top end: the last threshold whose key is <= hi, then the next.
      const double top = LastThresholdWithKeyAtMost(interval.hi, t, kLast);
      expect_same(top, "top end");
      auto past_top = BuildOpq(profile, std::nextafter(top, 1.0));
      ASSERT_TRUE(past_top.ok());
      EXPECT_EQ(past_top->key_interval().lo, interval.hi) << label;

      // The bottom end, when some node was judged unsatisfied.
      if (!std::isfinite(interval.lo)) continue;
      const double below = LastThresholdWithKeyAtMost(interval.lo, kFirst, t);
      expect_same(std::nextafter(below, 1.0), "bottom end");
      auto past_bottom = BuildOpq(profile, below);
      ASSERT_TRUE(past_bottom.ok());
      EXPECT_EQ(past_bottom->key_interval().hi, interval.lo) << label;
    }
  }
}

TEST(OpqBuilderDifferentialTest, PruningAblationIsIdenticalOutput) {
  // Pruning changes nodes visited, never the queue.
  const BinProfile profile = RandomProfile(8, 42);
  OpqBuildOptions pruned, full;
  full.enable_partial_pruning = false;
  OpqBuildStats pruned_stats, full_stats;
  auto a = BuildOpq(profile, 0.97, pruned, &pruned_stats);
  auto b = BuildOpq(profile, 0.97, full, &full_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdentical(*a, *b, "pruning ablation");
  EXPECT_LT(pruned_stats.nodes_visited, full_stats.nodes_visited);
}

TEST(OpqBuilderDifferentialTest, BudgetExhaustionAgreesWithNodesVisited) {
  // The satellite fix: nodes_visited is the budget counter. On exhaustion
  // both builders report node_budget + 1 (the visit that tripped it), for
  // any stats pointer state.
  // The first DFS level alone visits m = 12 nodes, so a budget of 10 is
  // guaranteed to trip on any enumeration order.
  const BinProfile profile = RandomProfile(12, 7);
  OpqBuildOptions options;
  options.node_budget = 10;
  for (auto* build : {&BuildOpq, &BuildOpqReference}) {
    OpqBuildStats stats;
    auto result = (*build)(profile, 0.99, options, &stats);
    ASSERT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    EXPECT_EQ(stats.nodes_visited, options.node_budget + 1);
    // And with no stats requested the build still fails identically.
    EXPECT_TRUE((*build)(profile, 0.99, options, nullptr)
                    .status()
                    .IsResourceExhausted());
  }
}

TEST(OpqBuilderDifferentialTest, SucceedingBuildsReportExactNodeCounts) {
  // A budget just above the need changes nothing; nodes_visited is exact.
  const BinProfile profile = BinProfile::PaperExample();
  OpqBuildStats stats;
  ASSERT_TRUE(BuildOpq(profile, 0.95, {}, &stats).ok());
  OpqBuildOptions tight;
  tight.node_budget = stats.nodes_visited;
  OpqBuildStats tight_stats;
  ASSERT_TRUE(BuildOpq(profile, 0.95, tight, &tight_stats).ok());
  EXPECT_EQ(tight_stats.nodes_visited, stats.nodes_visited);
  tight.node_budget = stats.nodes_visited - 1;
  EXPECT_TRUE(
      BuildOpq(profile, 0.95, tight, nullptr).status().IsResourceExhausted());
}

TEST(OpqBuilderDifferentialTest, MatchesReferenceBeyondGcdTableBound) {
  // Profiles with m > 255 take the builder's SaturatingLcm fallback (the
  // uint8_t gcd table cannot hold their gcd values); the queues must still
  // match the reference exactly.
  std::vector<TaskBin> bins;
  double cost = 0.05;
  for (uint32_t l = 1; l <= 300; ++l) {
    bins.push_back({l, 0.9, cost});
    cost += 0.01;
  }
  const BinProfile profile = BinProfile::Create(std::move(bins)).ValueOrDie();
  OpqBuildStats fast_stats, ref_stats;
  auto fast = BuildOpq(profile, 0.95, {}, &fast_stats);
  auto reference = BuildOpqReference(profile, 0.95, {}, &ref_stats);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*fast, *reference, "m=300");
  EXPECT_EQ(fast_stats.nodes_visited, ref_stats.nodes_visited);
}

TEST(OpqBuilderDifferentialTest, SurvivesAdversariallyDeepProfiles) {
  // A near-zero log-weight bin forces a combination of ~2.3 million copies
  // of b1 before the threshold is met: one DFS path 2.3M frames deep. The
  // recursive reference enumerator would exhaust the call stack here (one
  // Cand copy plus frame per level); the iterative builder just grows its
  // explicit frame vector.
  std::vector<TaskBin> bins = {{1, 1e-6, 0.01}};
  const BinProfile profile = BinProfile::Create(std::move(bins)).ValueOrDie();
  OpqBuildStats stats;
  auto queue = BuildOpq(profile, 0.9, {}, &stats);
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  ASSERT_EQ(queue->size(), 1u);
  const Combination& only = queue->element(0);
  EXPECT_EQ(only.lcm(), 1u);
  ASSERT_EQ(only.parts().size(), 1u);
  const double w = profile.bin(1).log_weight();
  const uint32_t copies = only.parts()[0].second;
  EXPECT_GT(copies, 2'000'000u);
  EXPECT_GE(static_cast<double>(copies) * w, queue->theta() - 1e-9);
  EXPECT_GT(stats.nodes_visited, 2'000'000u);
}

TEST(OpqBuilderDifferentialTest, EstimatedBytesScalesWithElementsAndParts) {
  // Regression guard for OpqCache byte charging: EstimatedBytes must grow
  // with both the number of queue elements and the parts they carry, and
  // never report less than the element storage itself.
  // Table 5 (t=0.86) yields one element; Table 3 (t=0.95) yields three.
  const BinProfile profile = BinProfile::PaperExample();
  auto small = BuildOpq(profile, 0.86);
  auto large = BuildOpq(profile, 0.95);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  ASSERT_GT(large->size(), small->size());
  EXPECT_GT(large->EstimatedBytes(), small->EstimatedBytes());
  EXPECT_GE(small->EstimatedBytes(),
            sizeof(OptimalPriorityQueue) +
                small->size() * sizeof(Combination));

  // Same element count, more parts per element => strictly more bytes.
  auto one_part =
      Combination::Create({{1, 2}}, profile).ValueOrDie();
  auto three_parts =
      Combination::Create({{1, 3}, {2, 2}, {3, 1}}, profile).ValueOrDie();
  OptimalPriorityQueue thin({one_part}, 1.0);
  OptimalPriorityQueue wide({three_parts}, 1.0);
  EXPECT_GT(wide.EstimatedBytes(), thin.EstimatedBytes());
  const size_t parts_bytes =
      (3 - 1) * sizeof(Combination::Parts::value_type);
  EXPECT_GE(wide.EstimatedBytes(), thin.EstimatedBytes() + parts_bytes);
}

}  // namespace
}  // namespace slade
