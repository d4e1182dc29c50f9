// Invariant coverage for PlanSplitter: handcrafted merged plans exercising
// the slicing rules directly, plus engine-produced plans for the edge cases
// -- empty requesters, single-task requesters, and all requesters landing
// in one threshold group.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/decomposition_engine.h"
#include "engine/plan_splitter.h"
#include "plan_signature.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

/// A merged "report" with two input tasks of 2 atomic tasks each and a
/// hand-written plan: one placement per input task plus one 3-bin shared
/// between them (the kPooled shape).
BatchReport HandcraftedReport() {
  BatchReport report;
  report.task_offsets = {0, 2, 4};
  report.plan.Add(2, 3, {0, 1});     // input task 0 only
  report.plan.Add(3, 1, {1, 2, 3});  // shared across both input tasks
  report.plan.Add(2, 2, {2, 3});     // input task 1 only
  return report;
}

TEST(PlanSplitterTest, SplitsSharedPlacementsIntoEverySlice) {
  const BinProfile profile = BinProfile::PaperExample();
  const BatchReport report = HandcraftedReport();
  std::vector<RequesterSpan> spans = {{"alice", 0, 1}, {"bob", 1, 1}};

  auto slices = PlanSplitter::SplitBySpans(report, profile, spans);
  ASSERT_TRUE(slices.ok()) << slices.status().ToString();
  ASSERT_EQ(slices->size(), 2u);

  const RequesterPlan& alice = (*slices)[0];
  EXPECT_EQ(alice.requester_id, "alice");
  EXPECT_EQ(alice.num_tasks(), 1u);
  EXPECT_EQ(alice.num_atomic_tasks(), 2u);
  // Local ids restart at 0; the shared 3-bin keeps cardinality and copies
  // but lists only alice's members.
  EXPECT_EQ(PlanSignature(alice.plan), "2x3:0;1;|3x1:1;|");

  const RequesterPlan& bob = (*slices)[1];
  EXPECT_EQ(bob.requester_id, "bob");
  EXPECT_EQ(bob.num_atomic_tasks(), 2u);
  EXPECT_EQ(PlanSignature(bob.plan), "3x1:0;1;|2x2:0;1;|");

  // Cost of each slice is the standalone cost of its placements, so the
  // shared 3-bin (cost 0.24) is billed to both.
  const double c2 = profile.bin(2).cost;
  const double c3 = profile.bin(3).cost;
  EXPECT_NEAR(alice.cost, 3 * c2 + c3, 1e-12);
  EXPECT_NEAR(bob.cost, c3 + 2 * c2, 1e-12);
  EXPECT_EQ(alice.bins_posted, 4u);
  EXPECT_EQ(bob.bins_posted, 3u);
}

TEST(PlanSplitterTest, EmptyRequesterGetsAnEmptySlice) {
  const BinProfile profile = BinProfile::PaperExample();
  const BatchReport report = HandcraftedReport();
  std::vector<RequesterSpan> spans = {
      {"early-empty", 0, 0}, {"alice", 0, 2}, {"late-empty", 2, 0}};

  auto slices = PlanSplitter::SplitBySpans(report, profile, spans);
  ASSERT_TRUE(slices.ok()) << slices.status().ToString();
  ASSERT_EQ(slices->size(), 3u);
  for (size_t empty_index : {size_t{0}, size_t{2}}) {
    const RequesterPlan& empty = (*slices)[empty_index];
    EXPECT_EQ(empty.num_tasks(), 0u);
    EXPECT_EQ(empty.num_atomic_tasks(), 0u);
    EXPECT_TRUE(empty.plan.empty());
    EXPECT_EQ(empty.cost, 0.0);
    EXPECT_EQ(empty.bins_posted, 0u);
  }
  // The non-empty span owns everything.
  EXPECT_EQ((*slices)[1].num_atomic_tasks(), 4u);
  EXPECT_EQ(PlanSignature((*slices)[1].plan), PlanSignature(report.plan));
}

TEST(PlanSplitterTest, SingleTaskRequesterKeepsItsWholePlan) {
  const BinProfile profile = BinProfile::PaperExample();
  auto task = CrowdsourcingTask::Homogeneous(5, 0.9);
  ASSERT_TRUE(task.ok());

  DecompositionEngine engine;
  auto report = engine.SolveBatch({*task}, profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto slices = PlanSplitter::SplitBySpans(*report, profile,
                                           {{"solo", 0, 1}});
  ASSERT_TRUE(slices.ok());
  ASSERT_EQ(slices->size(), 1u);
  // One requester owning the whole batch: the slice IS the merged plan.
  EXPECT_EQ(PlanSignature((*slices)[0].plan), PlanSignature(report->plan));
  EXPECT_NEAR((*slices)[0].cost, report->total_cost, 1e-9);
  EXPECT_EQ((*slices)[0].bins_posted, report->total_bins);

  auto validation = ValidatePlan((*slices)[0].plan, *task, profile);
  ASSERT_TRUE(validation.ok());
  EXPECT_TRUE(validation->feasible);
}

TEST(PlanSplitterTest, OneThresholdGroupPooledSlicesStayFeasible) {
  // Every requester uses the same threshold, so kPooled routes the whole
  // batch into a single shard and bins freely mix requesters.
  const BinProfile profile = BinProfile::PaperExample();
  std::vector<CrowdsourcingTask> tasks;
  std::vector<RequesterSpan> spans;
  for (size_t k = 0; k < 4; ++k) {
    auto task = CrowdsourcingTask::Homogeneous(3 + k, 0.9);
    ASSERT_TRUE(task.ok());
    tasks.push_back(*task);
    spans.push_back({"r" + std::to_string(k), k, 1});
  }

  EngineOptions options;
  options.sharing = BatchSharing::kPooled;
  DecompositionEngine engine(options);
  auto report = engine.SolveBatch(tasks, profile);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 1u);

  auto slices = PlanSplitter::SplitBySpans(*report, profile, spans);
  ASSERT_TRUE(slices.ok());
  double billed = 0.0;
  for (size_t k = 0; k < slices->size(); ++k) {
    const RequesterPlan& slice = (*slices)[k];
    EXPECT_EQ(slice.num_atomic_tasks(), tasks[k].size());
    auto validation = ValidatePlan(slice.plan, tasks[k], profile);
    ASSERT_TRUE(validation.ok()) << validation.status().ToString();
    EXPECT_TRUE(validation->feasible)
        << "requester " << slice.requester_id << " margin "
        << validation->worst_log_margin;
    billed += slice.cost;
  }
  EXPECT_GE(billed, report->total_cost - 1e-9);
}

TEST(PlanSplitterTest, SpansMustTileTheBatch) {
  const BinProfile profile = BinProfile::PaperExample();
  const BatchReport report = HandcraftedReport();

  // Gap, overlap, short coverage, over-coverage: all rejected.
  for (const std::vector<RequesterSpan>& bad :
       std::vector<std::vector<RequesterSpan>>{
           {{"a", 1, 1}},                  // gap at the front
           {{"a", 0, 2}, {"b", 1, 1}},     // overlap
           {{"a", 0, 1}},                  // covers 1 of 2
           {{"a", 0, 2}, {"b", 2, 1}}}) {  // third task doesn't exist
    auto slices = PlanSplitter::SplitBySpans(report, profile, bad);
    EXPECT_FALSE(slices.ok());
    EXPECT_TRUE(slices.status().IsInvalidArgument())
        << slices.status().ToString();
  }
}

TEST(PlanSplitterTest, RejectsPlanReferencingTasksOutsideTheBatch) {
  const BinProfile profile = BinProfile::PaperExample();
  BatchReport report;
  report.task_offsets = {0, 2};
  report.plan.Add(2, 1, {0, 7});  // id 7 is out of range
  auto slices = PlanSplitter::SplitBySpans(report, profile, {{"a", 0, 1}});
  EXPECT_FALSE(slices.ok());
  EXPECT_TRUE(slices.status().IsInvalidArgument());
}

}  // namespace
}  // namespace slade
