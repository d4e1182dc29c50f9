// Plan execution on the simulated platform: SimulatedDispatcher posts
// every placement copy as one single-assignment bin and hands back the
// answers, from which recall and spend are measured.

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "common/thread_pool.h"
#include "engine/answer_collector.h"
#include "inference/truth_inference.h"
#include "solver/opq_solver.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

PlatformConfig TestConfig(uint64_t seed = 31) {
  PlatformConfig config;
  config.model = JellyModel();
  config.seed = seed;
  config.skill_sigma = 0.0;
  return config;
}

std::vector<TaskId> Identity(size_t n) {
  std::vector<TaskId> ids(n);
  std::iota(ids.begin(), ids.end(), TaskId{0});
  return ids;
}

/// Posts `plan` inline, with plan ids addressing `truth` directly.
Status Execute(Platform& platform, const DecompositionPlan& plan,
               const BinProfile& profile, const std::vector<bool>& truth,
               AnswerCollector* collector) {
  return SimulatedDispatcher(platform, /*pool=*/nullptr)
      .Dispatch(plan, profile, Identity(truth.size()), truth, collector);
}

bool SameAnswers(const std::vector<WorkerAnswer>& a,
                 const std::vector<WorkerAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].worker != b[i].worker || a[i].task != b[i].task ||
        a[i].answer != b[i].answer || a[i].cardinality != b[i].cardinality) {
      return false;
    }
  }
  return true;
}

TEST(ExecutorTest, EmptyPlanDetectsNothing) {
  Platform platform(TestConfig());
  DecompositionPlan plan;
  const BinProfile profile = BinProfile::PaperExample();
  const std::vector<bool> truth = {true, false, true};
  AnswerCollector collector;
  ASSERT_TRUE(Execute(platform, plan, profile, truth, &collector).ok());
  const std::vector<WorkerAnswer> answers = collector.TakeAnswers();
  EXPECT_TRUE(answers.empty());
  EXPECT_DOUBLE_EQ(PositiveRecall(answers, truth), 0.0);
  EXPECT_DOUBLE_EQ(collector.stats().platform_cost, 0.0);
  EXPECT_EQ(collector.stats().bins_posted, 0u);
}

TEST(ExecutorTest, CostMatchesPlanCost) {
  Platform platform(TestConfig());
  const BinProfile profile = BuildProfile(JellyModel(), 5).ValueOrDie();
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 1, 2});
  plan.Add(1, 1, {3});
  AnswerCollector collector;
  ASSERT_TRUE(Execute(platform, plan, profile, {true, true, false, true},
                      &collector)
                  .ok());
  EXPECT_NEAR(collector.stats().platform_cost, plan.TotalCost(profile),
              1e-12);
  EXPECT_EQ(collector.stats().bins_posted, 3u);
  EXPECT_DOUBLE_EQ(platform.total_spent(), collector.stats().platform_cost);
}

TEST(ExecutorTest, RejectsOutOfRangeTask) {
  Platform platform(TestConfig());
  const BinProfile profile = BinProfile::PaperExample();
  DecompositionPlan plan;
  plan.Add(1, 1, {5});
  AnswerCollector collector;
  EXPECT_TRUE(
      Execute(platform, plan, profile, {true}, &collector).IsOutOfRange());
  EXPECT_EQ(platform.bins_posted(), 0u);
}

TEST(ExecutorTest, AllNegativeGroundTruthGivesPerfectRecall) {
  Platform platform(TestConfig());
  const BinProfile profile = BinProfile::PaperExample();
  DecompositionPlan plan;
  plan.Add(1, 1, {0});
  AnswerCollector collector;
  ASSERT_TRUE(Execute(platform, plan, profile, {false}, &collector).ok());
  EXPECT_EQ(collector.stats().answers, 1u);
  EXPECT_DOUBLE_EQ(PositiveRecall(collector.TakeAnswers(), {false}), 1.0);
}

TEST(ExecutorTest, MeasuredRecallMatchesPlannedReliability) {
  // Solve a 2000-task homogeneous instance at t=0.9, execute it, and
  // check the measured positive recall lands near (and statistically not
  // below) the planned reliability.
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(2000, 0.9);
  OpqSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);

  Platform platform(TestConfig(77));
  std::vector<bool> truth(2000, true);  // all positive: every task counts
  AnswerCollector collector;
  ASSERT_TRUE(Execute(platform, *plan, profile, truth, &collector).ok());
  const double recall = PositiveRecall(collector.TakeAnswers(), truth);

  // The plan guarantees Rel >= 0.9 per task; with per-task reliabilities
  // r_i >= 0.9 the empirical recall concentrates at mean(r_i) >= 0.9.
  // Allow 3-sigma sampling slack below 0.9.
  const double slack =
      3 * std::sqrt(0.9 * 0.1 / static_cast<double>(truth.size()));
  EXPECT_GE(recall, 0.9 - slack);
  EXPECT_NEAR(collector.stats().platform_cost, plan->TotalCost(profile),
              1e-9);
}

TEST(ExecutorTest, HigherThresholdYieldsHigherMeasuredRecall) {
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  OpqSolver solver;
  double recalls[2];
  int idx = 0;
  for (double t : {0.85, 0.99}) {
    auto task = CrowdsourcingTask::Homogeneous(3000, t);
    auto plan = solver.Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    Platform platform(TestConfig(123));
    std::vector<bool> truth(3000, true);
    AnswerCollector collector;
    ASSERT_TRUE(Execute(platform, *plan, profile, truth, &collector).ok());
    recalls[idx++] = PositiveRecall(collector.TakeAnswers(), truth);
  }
  EXPECT_GT(recalls[1], recalls[0]);
  EXPECT_GE(recalls[1], 0.985);
}

// A one-thread pool runs the posts in enqueue order, so it must reproduce
// inline posting answer for answer.
TEST(ExecutorTest, InlineAndOneThreadPoolGiveIdenticalAnswers) {
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(300, 0.9);
  auto plan = OpqSolver().Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  std::vector<bool> truth(300);
  for (size_t i = 0; i < truth.size(); ++i) truth[i] = i % 3 == 0;

  Platform inline_platform(TestConfig(5));
  AnswerCollector inline_answers;
  ASSERT_TRUE(
      Execute(inline_platform, *plan, profile, truth, &inline_answers).ok());

  Platform pooled_platform(TestConfig(5));
  ThreadPool pool(1);
  SimulatedDispatcher pooled(pooled_platform, &pool);
  AnswerCollector pooled_answers;
  ASSERT_TRUE(pooled
                  .Dispatch(*plan, profile, Identity(truth.size()), truth,
                            &pooled_answers)
                  .ok());
  pooled.Wait();

  EXPECT_GT(inline_answers.stats().answers, 0u);
  EXPECT_TRUE(SameAnswers(inline_answers.TakeAnswers(),
                          pooled_answers.TakeAnswers()));
  EXPECT_EQ(inline_answers.stats().bins_posted,
            pooled_answers.stats().bins_posted);
  EXPECT_DOUBLE_EQ(inline_answers.stats().platform_cost,
                   pooled_answers.stats().platform_cost);
  EXPECT_DOUBLE_EQ(inline_platform.total_spent(),
                   pooled_platform.total_spent());
}

TEST(ExecutorTest, EveryAnswerCarriesItsBinsCardinality) {
  const BinProfile profile = BuildProfile(JellyModel(), 8).ValueOrDie();
  DecompositionPlan plan;
  plan.Add(4, 2, {0, 1, 2});  // partially filled: 3 tasks in a 4-bin
  plan.Add(1, 3, {3});
  plan.Add(8, 1, {4, 5});
  Platform platform(TestConfig());
  AnswerCollector collector;
  ASSERT_TRUE(Execute(platform, plan, profile, std::vector<bool>(6, true),
                      &collector)
                  .ok());
  const std::vector<WorkerAnswer> answers = collector.TakeAnswers();
  ASSERT_EQ(answers.size(), 2u * 3u + 3u * 1u + 1u * 2u);
  for (const WorkerAnswer& a : answers) {
    const uint16_t want = a.task <= 2 ? 4 : a.task == 3 ? 1 : 8;
    EXPECT_EQ(a.cardinality, want) << "task " << a.task;
  }
}

TEST(ExecutorTest, BadPlacementsFailBeforeAnyPost) {
  const BinProfile profile = BuildProfile(JellyModel(), 4).ValueOrDie();
  const std::vector<bool> truth(8, true);
  std::vector<TaskBin> wide_bins;
  for (uint32_t l = 1; l <= 65536; ++l) wide_bins.push_back({l, 0.9, 0.1});
  const BinProfile wide = BinProfile::Create(wide_bins).ValueOrDie();

  struct Case {
    const char* what;
    uint32_t cardinality;
    std::vector<TaskId> tasks;
    const BinProfile* profile;
  };
  const Case cases[] = {
      {"cardinality 0", 0, {1}, &profile},
      {"cardinality above the profile's m", 5, {1}, &profile},
      {"more tasks than the cardinality", 2, {1, 2, 3}, &profile},
      {"cardinality above the 16-bit answer tag", 65536, {1}, &wide},
  };
  for (const Case& c : cases) {
    DecompositionPlan plan;
    plan.Add(1, 1, {0});  // a valid placement ahead of the bad one
    plan.Add(c.cardinality, 1, c.tasks);
    Platform platform(TestConfig());
    AnswerCollector collector;
    const Status status =
        Execute(platform, plan, *c.profile, truth, &collector);
    EXPECT_TRUE(status.IsInvalidArgument()) << c.what << ": "
                                            << status.ToString();
    EXPECT_EQ(platform.bins_posted(), 0u) << c.what;
    EXPECT_EQ(collector.stats().bins_posted, 0u) << c.what;
  }
}

}  // namespace
}  // namespace slade
