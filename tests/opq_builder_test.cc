#include "solver/opq_builder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "binmodel/profile_model.h"
#include "common/math_util.h"

namespace slade {
namespace {

std::vector<Combination::Parts> PartsOf(const OptimalPriorityQueue& opq) {
  std::vector<Combination::Parts> parts;
  for (const Combination& c : opq.elements()) parts.push_back(c.parts());
  return parts;
}

TEST(OpqBuilderTest, ReproducesTable3) {
  // t = 0.95 on the Table 1 profile -> {2xb3} 0.16/3, {2xb2} 0.18/2,
  // {2xb1} 0.20/1 (paper Table 3).
  auto opq = BuildOpq(BinProfile::PaperExample(), 0.95);
  ASSERT_TRUE(opq.ok());
  ASSERT_EQ(opq->size(), 3u);
  EXPECT_EQ(opq->element(0).lcm(), 3u);
  EXPECT_NEAR(opq->element(0).unit_cost(), 0.16, 1e-12);
  EXPECT_EQ(opq->element(1).lcm(), 2u);
  EXPECT_NEAR(opq->element(1).unit_cost(), 0.18, 1e-12);
  EXPECT_EQ(opq->element(2).lcm(), 1u);
  EXPECT_NEAR(opq->element(2).unit_cost(), 0.20, 1e-12);
}

TEST(OpqBuilderTest, ReproducesTable4AndTable5) {
  // Table 4: t = 0.632 -> singletons of each bin.
  auto opq0 = BuildOpq(BinProfile::PaperExample(), 0.632);
  ASSERT_TRUE(opq0.ok());
  ASSERT_EQ(opq0->size(), 3u);
  EXPECT_NEAR(opq0->element(0).unit_cost(), 0.08, 1e-12);
  EXPECT_EQ(opq0->element(0).lcm(), 3u);
  EXPECT_NEAR(opq0->element(2).unit_cost(), 0.10, 1e-12);

  // Table 5: t = 0.86 -> only {1 x b1}.
  auto opq1 = BuildOpq(BinProfile::PaperExample(), 0.86);
  ASSERT_TRUE(opq1.ok());
  ASSERT_EQ(opq1->size(), 1u);
  EXPECT_EQ(opq1->element(0).lcm(), 1u);
  EXPECT_NEAR(opq1->element(0).unit_cost(), 0.10, 1e-12);
  Combination::Parts expected = {{1, 1}};
  EXPECT_EQ(opq1->element(0).parts(), expected);
}

TEST(OpqBuilderTest, RejectsBadThreshold) {
  EXPECT_FALSE(BuildOpq(BinProfile::PaperExample(), 0.0).ok());
  EXPECT_FALSE(BuildOpq(BinProfile::PaperExample(), 1.0).ok());
  EXPECT_FALSE(BuildOpq(BinProfile::PaperExample(), -3.0).ok());
}

TEST(OpqBuilderTest, NodeBudgetEnforced) {
  OpqBuildOptions options;
  options.node_budget = 2;
  auto opq = BuildOpq(BuildProfile(JellyModel(), 20).ValueOrDie(), 0.97,
                      options);
  EXPECT_TRUE(opq.status().IsResourceExhausted());
}

class OpqInvariantTest
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(OpqInvariantTest, DefinitionFourInvariantsHold) {
  const auto [t, m] = GetParam();
  const BinProfile profile = BuildProfile(JellyModel(), m).ValueOrDie();
  auto opq = BuildOpq(profile, t);
  ASSERT_TRUE(opq.ok());
  ASSERT_GT(opq->size(), 0u);

  const double theta = LogReduction(t);
  for (size_t i = 0; i < opq->size(); ++i) {
    const Combination& c = opq->element(i);
    // Condition (3): every element satisfies the threshold.
    EXPECT_GE(c.log_weight(), theta - 1e-9) << c.ToString();
    if (i > 0) {
      // Condition (1): LCM strictly descending.
      EXPECT_LT(c.lcm(), opq->element(i - 1).lcm());
      // Condition (2): no dominance => UC strictly ascending.
      EXPECT_GT(c.unit_cost(), opq->element(i - 1).unit_cost());
    }
  }
  // An LCM=1 element always survives (Algorithm 3's termination guarantee).
  EXPECT_EQ(opq->element(opq->size() - 1).lcm(), 1u);
  // The build's own decision key lies in the interval it reports.
  EXPECT_TRUE(opq->key_interval().Contains(OpqDecisionKey(t)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpqInvariantTest,
    ::testing::Combine(::testing::Values(0.87, 0.9, 0.92, 0.95, 0.97),
                       ::testing::Values(1u, 2u, 3u, 6u, 13u, 20u)));

TEST(OpqBuilderTest, PruningDoesNotChangeTheResult) {
  // Lemma 1 ablation: disabling partial-combination pruning must yield the
  // exact same Pareto frontier, only with more nodes visited.
  for (double t : {0.87, 0.95}) {
    const BinProfile profile = BuildProfile(SmicModel(), 10).ValueOrDie();
    OpqBuildOptions pruned, unpruned;
    unpruned.enable_partial_pruning = false;
    OpqBuildStats stats_pruned, stats_unpruned;
    auto a = BuildOpq(profile, t, pruned, &stats_pruned);
    auto b = BuildOpq(profile, t, unpruned, &stats_unpruned);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->element(i).lcm(), b->element(i).lcm());
      EXPECT_NEAR(a->element(i).unit_cost(), b->element(i).unit_cost(),
                  1e-12);
      EXPECT_EQ(a->element(i).parts(), b->element(i).parts());
    }
    EXPECT_LE(stats_pruned.nodes_visited, stats_unpruned.nodes_visited);
  }
}

TEST(OpqBuilderTest, FrontHasGloballyMinimalUnitCost) {
  // Lemma 2: OPQ_1 yields the lowest unit cost of any threshold-satisfying
  // combination. Cross-check against exhaustive enumeration on a small
  // profile (depth-capped brute force).
  const BinProfile profile = BinProfile::PaperExample();
  const double t = 0.95;
  const double theta = LogReduction(t);
  auto opq = BuildOpq(profile, t);
  ASSERT_TRUE(opq.ok());

  // Brute force over counts (n1, n2, n3) <= 4 each.
  double best_uc = 1e18;
  for (uint32_t n1 = 0; n1 <= 4; ++n1) {
    for (uint32_t n2 = 0; n2 <= 4; ++n2) {
      for (uint32_t n3 = 0; n3 <= 4; ++n3) {
        if (n1 + n2 + n3 == 0) continue;
        const double w = n1 * profile.bin(1).log_weight() +
                         n2 * profile.bin(2).log_weight() +
                         n3 * profile.bin(3).log_weight();
        if (w < theta - 1e-12) continue;
        const double uc = n1 * profile.bin(1).cost +
                          n2 * profile.bin(2).cost / 2.0 +
                          n3 * profile.bin(3).cost / 3.0;
        best_uc = std::min(best_uc, uc);
      }
    }
  }
  EXPECT_NEAR(opq->front().unit_cost(), best_uc, 1e-12);
}

TEST(OpqBuilderTest, SingleBinProfileDegenerates) {
  // With only b1 available, the queue is exactly {ceil(theta/w1) x b1}.
  auto profile = BinProfile::PaperExample().Truncated(1);
  auto opq = BuildOpq(*profile, 0.95);
  ASSERT_TRUE(opq.ok());
  ASSERT_EQ(opq->size(), 1u);
  Combination::Parts expected = {{1, 2}};  // 2*w(0.9)=4.6 >= 2.996
  EXPECT_EQ(opq->front().parts(), expected);
}

TEST(OpqBuilderTest, BinConfidenceThresholdsSitJustBelowAnIntervalEnd) {
  // At t equal to a bin's confidence, that bin alone has log-weight
  // LogReduction(t), which the key undercuts by kOpqBuildEps: the bin is
  // judged satisfied, and it ends the interval. One key past that end the
  // bin is judged unsatisfied, so the next interval starts exactly there.
  const BinProfile profile = BinProfile::PaperExample();
  for (uint32_t l = 1; l <= 3; ++l) {
    const double t = profile.bin(l).confidence;
    const double key = OpqDecisionKey(t);
    auto at = BuildOpq(profile, t);
    ASSERT_TRUE(at.ok());
    const OpqKeyInterval interval = at->key_interval();
    EXPECT_TRUE(interval.Contains(key)) << "l=" << l;
    EXPECT_EQ(interval.hi, profile.bin(l).log_weight()) << "l=" << l;
    EXPECT_NEAR(interval.hi - key, kOpqBuildEps, 1e-15) << "l=" << l;

    // Walk t up until its key passes hi (about a thousand steps).
    double past = t;
    while (OpqDecisionKey(past) <= interval.hi) {
      past = std::nextafter(past, 1.0);
    }
    auto next = BuildOpq(profile, past);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next->key_interval().lo, interval.hi) << "l=" << l;
    EXPECT_NE(PartsOf(*next), PartsOf(*at)) << "l=" << l;
  }
}

TEST(OpqBuilderTest, StatsAreRecorded) {
  OpqBuildStats stats;
  auto opq = BuildOpq(BinProfile::PaperExample(), 0.95, {}, &stats);
  ASSERT_TRUE(opq.ok());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.insertions, 0u);
}

}  // namespace
}  // namespace slade
