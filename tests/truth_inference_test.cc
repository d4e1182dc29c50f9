#include "inference/truth_inference.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace slade {
namespace {

std::vector<WorkerAnswer> SyntheticAnswers(
    const std::vector<bool>& truth, const std::vector<double>& accuracy,
    int answers_per_task, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<WorkerAnswer> answers;
  for (TaskId t = 0; t < truth.size(); ++t) {
    for (int k = 0; k < answers_per_task; ++k) {
      const uint32_t w =
          static_cast<uint32_t>(rng.NextBounded(accuracy.size()));
      const bool correct = rng.NextBernoulli(accuracy[w]);
      answers.push_back(
          WorkerAnswer{w, t, correct ? truth[t] : !truth[t]});
    }
  }
  return answers;
}

TEST(MajorityVoteTest, BasicAggregation) {
  std::vector<WorkerAnswer> answers = {
      {0, 0, true}, {1, 0, true}, {2, 0, false},   // task 0: 2/3 yes
      {0, 1, false}, {1, 1, false},                // task 1: 0/2 yes
  };
  auto result = MajorityVote(answers, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->posterior[0], 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(result->labels[0]);
  EXPECT_FALSE(result->labels[1]);
  EXPECT_DOUBLE_EQ(result->posterior[2], 0.5);  // unanswered
}

TEST(MajorityVoteTest, TieBreaksPositive) {
  std::vector<WorkerAnswer> answers = {{0, 0, true}, {1, 0, false}};
  auto result = MajorityVote(answers, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->labels[0]);
}

TEST(MajorityVoteTest, WorkerAgreementReported) {
  std::vector<WorkerAnswer> answers = {
      {7, 0, true}, {8, 0, true}, {9, 0, false}};
  auto result = MajorityVote(answers, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->worker_accuracy.at(7), 1.0);
  EXPECT_DOUBLE_EQ(result->worker_accuracy.at(9), 0.0);
}

TEST(MajorityVoteTest, RejectsBadInput) {
  EXPECT_TRUE(MajorityVote({}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      MajorityVote({{0, 5, true}}, 3).status().IsOutOfRange());
}

TEST(DawidSkeneTest, RecoverLabelsFromReliableWorkers) {
  std::vector<bool> truth(200);
  Xoshiro256 rng(1);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.NextBernoulli(0.5);
  }
  std::vector<double> accuracy(20, 0.85);
  auto answers = SyntheticAnswers(truth, accuracy, 5, 2);
  auto result = DawidSkeneBinary(answers, truth.size());
  ASSERT_TRUE(result.ok());
  // Majority of 5 answers at 0.85 accuracy is right ~97% of the time;
  // allow normal sampling slack over 200 tasks.
  EXPECT_GE(LabelAccuracy(*result, truth, answers), 0.94);
}

TEST(DawidSkeneTest, BeatsMajorityWithMixedWorkerQuality) {
  // Half the workers are near-random; EM should discount them while
  // majority voting cannot.
  std::vector<bool> truth(400);
  Xoshiro256 rng(3);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.NextBernoulli(0.5);
  }
  std::vector<double> accuracy;
  for (int w = 0; w < 10; ++w) accuracy.push_back(0.95);
  for (int w = 0; w < 10; ++w) accuracy.push_back(0.52);
  auto answers = SyntheticAnswers(truth, accuracy, 7, 4);

  auto em = DawidSkeneBinary(answers, truth.size());
  auto mv = MajorityVote(answers, truth.size());
  ASSERT_TRUE(em.ok());
  ASSERT_TRUE(mv.ok());
  const double em_acc = LabelAccuracy(*em, truth, answers);
  const double mv_acc = LabelAccuracy(*mv, truth, answers);
  EXPECT_GE(em_acc, mv_acc - 1e-12);
  EXPECT_GE(em_acc, 0.97);
}

TEST(DawidSkeneTest, EstimatesWorkerAccuracies) {
  std::vector<bool> truth(600);
  Xoshiro256 rng(5);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.NextBernoulli(0.5);
  }
  std::vector<double> accuracy = {0.95, 0.95, 0.9, 0.9, 0.8, 0.8,
                                  0.7, 0.7, 0.6, 0.6};
  auto answers = SyntheticAnswers(truth, accuracy, 6, 6);
  auto result = DawidSkeneBinary(answers, truth.size());
  ASSERT_TRUE(result.ok());
  for (uint32_t w = 0; w < accuracy.size(); ++w) {
    ASSERT_TRUE(result->worker_accuracy.count(w));
    EXPECT_NEAR(result->worker_accuracy.at(w), accuracy[w], 0.08)
        << "worker " << w;
  }
}

TEST(DawidSkeneTest, UnansweredTasksStayAtHalf) {
  std::vector<WorkerAnswer> answers = {{0, 0, true}, {1, 0, true}};
  auto result = DawidSkeneBinary(answers, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->posterior[1], 0.5);
  EXPECT_DOUBLE_EQ(result->posterior[2], 0.5);
}

TEST(DawidSkeneTest, ConvergesAndReportsIterations) {
  std::vector<bool> truth(50, true);
  std::vector<double> accuracy(5, 0.9);
  auto answers = SyntheticAnswers(truth, accuracy, 3, 7);
  auto result = DawidSkeneBinary(answers, truth.size());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->iterations, 0);
  EXPECT_LE(result->iterations, 100);
}

TEST(DawidSkeneTest, RejectsBadOptions) {
  std::vector<WorkerAnswer> answers = {{0, 0, true}};
  DawidSkeneOptions bad;
  bad.initial_accuracy = 0.5;
  EXPECT_TRUE(
      DawidSkeneBinary(answers, 1, bad).status().IsInvalidArgument());
  DawidSkeneOptions bad_prior;
  bad_prior.prior_positive = 0.0;
  EXPECT_TRUE(DawidSkeneBinary(answers, 1, bad_prior)
                  .status()
                  .IsInvalidArgument());
}

TEST(ConfidenceFromAgreementTest, InvertsTheMomentEquation) {
  // a = r^2 + (1-r)^2 must round-trip.
  for (double r : {0.5, 0.6, 0.75, 0.9, 0.99}) {
    const double a = r * r + (1 - r) * (1 - r);
    EXPECT_NEAR(ConfidenceFromAgreement(a), r, 1e-12) << "r=" << r;
  }
}

TEST(ConfidenceFromAgreementTest, ClampsBelowHalf) {
  EXPECT_DOUBLE_EQ(ConfidenceFromAgreement(0.4), 0.5);
  EXPECT_DOUBLE_EQ(ConfidenceFromAgreement(0.0), 0.5);
  EXPECT_DOUBLE_EQ(ConfidenceFromAgreement(1.0), 1.0);
}

TEST(ConfidenceFromAgreementTest, ConsistentOnSimulatedAnswers) {
  // Draw many answer pairs at true accuracy r and check the estimator
  // converges to r -- including the regime where the crowd agrees on a
  // wrong answer, which biases label-based agreement upward.
  Xoshiro256 rng(11);
  for (double r : {0.65, 0.8, 0.95}) {
    uint64_t agree = 0, pairs = 200000;
    for (uint64_t i = 0; i < pairs; ++i) {
      const bool a_correct = rng.NextBernoulli(r);
      const bool b_correct = rng.NextBernoulli(r);
      if (a_correct == b_correct) ++agree;
    }
    const double estimate = ConfidenceFromAgreement(
        static_cast<double>(agree) / static_cast<double>(pairs));
    EXPECT_NEAR(estimate, r, 0.01) << "r=" << r;
  }
}

TEST(AgreeingPairsTest, SmallCases) {
  EXPECT_EQ(AgreeingPairs(0, 2), 1u);   // both negative
  EXPECT_EQ(AgreeingPairs(2, 2), 1u);   // both positive
  EXPECT_EQ(AgreeingPairs(1, 2), 0u);   // split
  EXPECT_EQ(AgreeingPairs(2, 4), 2u);   // C(2,2)+C(2,2)
  EXPECT_EQ(AgreeingPairs(3, 4), 3u);   // C(3,2)+C(1,2)
  EXPECT_EQ(AgreeingPairs(0, 1), 0u);   // no pair
  EXPECT_EQ(AgreeingPairs(5, 4), 0u);   // malformed input
}

// --- Edge cases the closed loop feeds the aggregators: spammer-majority
// crowds, single-answer tasks and unanimously wrong answers must all
// yield sane (finite, [0,1], not over-confident) posteriors.

void ExpectSanePosteriors(const InferenceResult& result) {
  for (double p : result.posterior) {
    EXPECT_FALSE(std::isnan(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  for (const auto& [worker, accuracy] : result.worker_accuracy) {
    (void)worker;
    EXPECT_FALSE(std::isnan(accuracy));
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
}

TEST(DawidSkeneEdgeTest, SpammerMajorityStaysSane) {
  // 2 honest workers vs 5 coin-flip spammers over 40 tasks.
  const size_t n = 40;
  std::vector<bool> truth;
  Xoshiro256 rng(21);
  for (size_t i = 0; i < n; ++i) truth.push_back(rng.NextBernoulli(0.5));
  std::vector<WorkerAnswer> answers;
  for (TaskId t = 0; t < n; ++t) {
    for (uint32_t w = 0; w < 2; ++w) {  // honest
      answers.push_back(WorkerAnswer{w, t, truth[t]});
    }
    for (uint32_t w = 2; w < 7; ++w) {  // spammers
      answers.push_back(WorkerAnswer{w, t, rng.NextBernoulli(0.5)});
    }
  }
  auto result = DawidSkeneBinary(answers, n);
  ASSERT_TRUE(result.ok());
  ExpectSanePosteriors(*result);
  // EM should still downweight the spammers: the honest workers' learned
  // accuracy must dominate every spammer's.
  double honest_min = 1.0, spammer_max = 0.0;
  for (const auto& [worker, accuracy] : result->worker_accuracy) {
    if (worker < 2) {
      honest_min = std::min(honest_min, accuracy);
    } else {
      spammer_max = std::max(spammer_max, accuracy);
    }
  }
  EXPECT_GT(honest_min, spammer_max);
}

TEST(DawidSkeneEdgeTest, SingleAnswerTasksAreNotOverConfident) {
  // One answer per task: there is no agreement evidence at all, so no
  // posterior may hit a degenerate 0/1 (accuracies are Beta-smoothed and
  // clamped away from certainty).
  std::vector<WorkerAnswer> answers;
  for (TaskId t = 0; t < 12; ++t) {
    answers.push_back(WorkerAnswer{t % 3, t, t % 2 == 0});
  }
  auto result = DawidSkeneBinary(answers, 12);
  ASSERT_TRUE(result.ok());
  ExpectSanePosteriors(*result);
  for (double p : result->posterior) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(DawidSkeneEdgeTest, UnanimousWrongAnswerStaysBounded) {
  // 30 tasks answered correctly by 4 workers; task 30 answered wrongly by
  // all 4 (a genuinely hard task). The posterior must be finite and the
  // workers' accuracy must not be dragged to a degenerate value.
  std::vector<WorkerAnswer> answers;
  const size_t n = 31;
  for (TaskId t = 0; t + 1 < n; ++t) {
    for (uint32_t w = 0; w < 4; ++w) {
      answers.push_back(WorkerAnswer{w, t, true});
    }
  }
  for (uint32_t w = 0; w < 4; ++w) {
    answers.push_back(
        WorkerAnswer{w, static_cast<TaskId>(n - 1), false});
  }
  auto result = DawidSkeneBinary(answers, n);
  ASSERT_TRUE(result.ok());
  ExpectSanePosteriors(*result);
  // The crowd was unanimous, so the label follows it -- confidently but
  // not with certainty.
  EXPECT_FALSE(result->labels[n - 1]);
  EXPECT_LT(result->posterior[n - 1], 0.5);
  EXPECT_GT(result->posterior[n - 1], 0.0);
}

TEST(MajorityVoteEdgeTest, SpammerMajorityAndSingleAnswersStaySane) {
  std::vector<WorkerAnswer> answers;
  Xoshiro256 rng(4);
  for (TaskId t = 0; t < 20; ++t) {
    const uint32_t voters = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    for (uint32_t w = 0; w < voters; ++w) {
      answers.push_back(WorkerAnswer{w, t, rng.NextBernoulli(0.5)});
    }
  }
  auto result = MajorityVote(answers, 20);
  ASSERT_TRUE(result.ok());
  ExpectSanePosteriors(*result);
}

TEST(LabelAccuracyTest, CountsOnlyAnsweredTasks) {
  InferenceResult result;
  result.labels = {true, false, true};
  std::vector<WorkerAnswer> answers = {{0, 0, true}, {0, 2, true}};
  // Truth: {true, X, false} -> task 0 correct, task 2 wrong, task 1
  // ignored.
  EXPECT_DOUBLE_EQ(
      LabelAccuracy(result, {true, true, false}, answers), 0.5);
  EXPECT_DOUBLE_EQ(LabelAccuracy(result, {true, true, false}, {}), 0.0);
}

TEST(PositiveRecallTest, CountsPositivesWithAtLeastOneYes) {
  // Positives: tasks 0, 1, 3. Task 0 gets a yes, task 1 only a no, task 3
  // a no then a yes; the yes on negative task 2 counts for nothing.
  const std::vector<WorkerAnswer> answers = {
      {0, 0, true}, {1, 1, false}, {0, 2, true}, {2, 3, false},
      {3, 3, true}};
  EXPECT_DOUBLE_EQ(PositiveRecall(answers, {true, true, false, true}),
                   2.0 / 3.0);
}

TEST(PositiveRecallTest, NoPositivesGivesOne) {
  EXPECT_DOUBLE_EQ(PositiveRecall({{0, 0, false}}, {false, false}), 1.0);
  EXPECT_DOUBLE_EQ(PositiveRecall({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(PositiveRecall({}, {true}), 0.0);
}

TEST(PositiveRecallTest, IgnoresOutOfRangeTaskIds) {
  const std::vector<WorkerAnswer> answers = {{0, 7, true}, {0, 1, true}};
  EXPECT_DOUBLE_EQ(PositiveRecall(answers, {true, true}), 0.5);
}

}  // namespace
}  // namespace slade
