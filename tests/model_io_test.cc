#include "io/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "binmodel/profile_model.h"
#include "plan_signature.h"

namespace slade {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ =
      std::string("model_io_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(ModelIoTest, ProfileRoundTrip) {
  const BinProfile original = BuildProfile(JellyModel(), 12).ValueOrDie();
  ASSERT_TRUE(SaveBinProfileCsv(original, path_).ok());
  auto loaded = LoadBinProfileCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (uint32_t l = 1; l <= original.max_cardinality(); ++l) {
    EXPECT_NEAR(loaded->bin(l).confidence, original.bin(l).confidence,
                1e-9);
    EXPECT_NEAR(loaded->bin(l).cost, original.bin(l).cost, 1e-9);
  }
}

TEST_F(ModelIoTest, ProfileRowsMayArriveUnordered) {
  {
    std::ofstream out(path_);
    out << "cardinality,confidence,cost\n3,0.8,0.24\n1,0.9,0.1\n"
           "2,0.85,0.18\n";
  }
  auto loaded = LoadBinProfileCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->bin(2).cost, 0.18);
}

TEST_F(ModelIoTest, ProfileHeaderChecked) {
  {
    std::ofstream out(path_);
    out << "l,r,c\n1,0.9,0.1\n";
  }
  EXPECT_TRUE(LoadBinProfileCsv(path_).status().IsInvalidArgument());
}

TEST_F(ModelIoTest, ProfileBadRowRejected) {
  {
    std::ofstream out(path_);
    out << "cardinality,confidence,cost\n1,0.9\n";
  }
  EXPECT_TRUE(LoadBinProfileCsv(path_).status().IsInvalidArgument());
}

TEST_F(ModelIoTest, ThresholdsRoundTrip) {
  auto task = CrowdsourcingTask::FromThresholds({0.5, 0.9, 0.95, 0.86});
  ASSERT_TRUE(SaveThresholdsCsv(*task, path_).ok());
  auto loaded = LoadThresholdsCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 4u);
  EXPECT_EQ(loaded->thresholds(), task->thresholds());
}

TEST_F(ModelIoTest, ThresholdsOutOfRangeRejected) {
  {
    std::ofstream out(path_);
    out << "threshold\n0.9\n1.5\n";
  }
  EXPECT_TRUE(LoadThresholdsCsv(path_).status().IsInvalidArgument());
}

TEST_F(ModelIoTest, PlanRoundTrip) {
  DecompositionPlan plan;
  plan.Add(3, 2, {0, 5, 9});
  plan.Add(1, 1, {7});
  plan.Add(2, 4, {1, 2});
  ASSERT_TRUE(SavePlanCsv(plan, path_).ok());
  auto loaded = LoadPlanCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(PlanSignature(*loaded), "3x2:0;5;9;|1x1:7;|2x4:1;2;|");
}

TEST_F(ModelIoTest, PlanWithEmptyTaskListRoundTrips) {
  DecompositionPlan plan;
  plan.Add(2, 1, {});
  ASSERT_TRUE(SavePlanCsv(plan, path_).ok());
  auto loaded = LoadPlanCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(PlanSignature(*loaded), "2x1:|");
}

TEST_F(ModelIoTest, ValuesBeyond32BitsAreRejectedNotWrapped) {
  // Cardinality, copies and task ids are 32-bit fields. Truncated, each
  // row below would load as the plan row "1,40,0" (or, last, as a bin
  // listing task 0 twice) instead of failing.
  for (const char* row : {"4294967297,40,0", "1,4294967336,0",
                          "1,40,4294967296", "1,40,0;4294967296"}) {
    {
      std::ofstream out(path_);
      out << "cardinality,copies,tasks\n" << row << "\n";
    }
    const Status st = LoadPlanCsv(path_).status();
    EXPECT_TRUE(st.IsInvalidArgument() &&
                st.message().find(path_ + ": row 1") != std::string::npos)
        << row << ": " << st.ToString();
  }
  {
    std::ofstream out(path_);
    out << "cardinality,confidence,cost\n4294967297,0.9,0.1\n";
  }
  EXPECT_TRUE(LoadBinProfileCsv(path_).status().IsInvalidArgument());
}

TEST_F(ModelIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadBinProfileCsv("/no/such.csv").status().IsIOError());
  EXPECT_TRUE(LoadThresholdsCsv("/no/such.csv").status().IsIOError());
  EXPECT_TRUE(LoadPlanCsv("/no/such.csv").status().IsIOError());
  EXPECT_TRUE(LoadBatchWorkloadCsv("/no/such.csv").status().IsIOError());
}

TEST_F(ModelIoTest, BatchWorkloadRoundTrip) {
  std::vector<CrowdsourcingTask> tasks;
  tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.8, 0.9, 0.85}).ValueOrDie());
  tasks.push_back(CrowdsourcingTask::Homogeneous(5, 0.92).ValueOrDie());
  tasks.push_back(CrowdsourcingTask::FromThresholds({0.7}).ValueOrDie());
  ASSERT_TRUE(SaveBatchWorkloadCsv(tasks, path_).ok());
  auto loaded = LoadBatchWorkloadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), tasks.size());
  for (size_t k = 0; k < tasks.size(); ++k) {
    ASSERT_EQ((*loaded)[k].size(), tasks[k].size()) << "task " << k;
    for (size_t i = 0; i < tasks[k].size(); ++i) {
      EXPECT_NEAR((*loaded)[k].threshold(static_cast<TaskId>(i)),
                  tasks[k].threshold(static_cast<TaskId>(i)), 1e-9);
    }
  }
}

TEST_F(ModelIoTest, TimedWorkloadRoundTrip) {
  std::vector<TimedSubmission> submissions(3);
  submissions[0].arrival_ms = 0.0;
  submissions[0].requester = "alice";
  submissions[0].tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.8, 0.9}).ValueOrDie());
  submissions[0].tasks.push_back(
      CrowdsourcingTask::Homogeneous(3, 0.92).ValueOrDie());
  submissions[1].arrival_ms = 2.5;
  submissions[1].requester = "bob";
  submissions[1].tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.7}).ValueOrDie());
  // Same requester again later: a distinct submission (arrival_ms differs).
  submissions[2].arrival_ms = 10.0;
  submissions[2].requester = "alice";
  submissions[2].tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.95, 0.6}).ValueOrDie());

  ASSERT_TRUE(SaveTimedWorkloadCsv(submissions, path_).ok());
  auto loaded = LoadTimedWorkloadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), submissions.size());
  for (size_t s = 0; s < submissions.size(); ++s) {
    SCOPED_TRACE("submission " + std::to_string(s));
    EXPECT_NEAR((*loaded)[s].arrival_ms, submissions[s].arrival_ms, 1e-9);
    EXPECT_EQ((*loaded)[s].requester, submissions[s].requester);
    ASSERT_EQ((*loaded)[s].tasks.size(), submissions[s].tasks.size());
    EXPECT_EQ((*loaded)[s].num_atomic_tasks(),
              submissions[s].num_atomic_tasks());
    for (size_t k = 0; k < submissions[s].tasks.size(); ++k) {
      EXPECT_EQ((*loaded)[s].tasks[k].thresholds(),
                submissions[s].tasks[k].thresholds());
    }
  }
}

TEST_F(ModelIoTest, TimedWorkloadSubmissionBoundaries) {
  // Consecutive rows with the same (arrival_ms, requester) are one
  // submission; a changed requester at the same time, or a later arrival,
  // starts a new one.
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n"
           "0,a,0,0.9\n0,a,0,0.8\n0,a,1,0.7\n"
           "0,b,0,0.85\n"
           "3,a,0,0.9\n";
  }
  auto loaded = LoadTimedWorkloadCsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[0].requester, "a");
  EXPECT_EQ((*loaded)[0].tasks.size(), 2u);
  EXPECT_EQ((*loaded)[0].tasks[0].size(), 2u);
  EXPECT_EQ((*loaded)[1].requester, "b");
  EXPECT_EQ((*loaded)[1].tasks.size(), 1u);
  EXPECT_EQ((*loaded)[2].requester, "a");
  EXPECT_NEAR((*loaded)[2].arrival_ms, 3.0, 1e-12);
}

TEST_F(ModelIoTest, TimedWorkloadSaveRejectsAmbiguousNeighbours) {
  // Two submissions sharing (arrival_ms, requester) would merge on reload;
  // Save must refuse instead of silently corrupting the round trip.
  std::vector<TimedSubmission> submissions(2);
  submissions[0].arrival_ms = 1.0;
  submissions[0].requester = "alice";
  submissions[0].tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.9}).ValueOrDie());
  submissions[1].arrival_ms = 1.0;
  submissions[1].requester = "alice";
  submissions[1].tasks.push_back(
      CrowdsourcingTask::FromThresholds({0.8}).ValueOrDie());
  Status st = SaveTimedWorkloadCsv(submissions, path_);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  submissions[1].requester = "bob";  // same time, different requester: fine
  EXPECT_TRUE(SaveTimedWorkloadCsv(submissions, path_).ok());
  auto loaded = LoadTimedWorkloadCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST_F(ModelIoTest, TimedWorkloadRejectsBadInput) {
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n"
           "5,a,0,0.9\n1,b,0,0.9\n";  // arrivals must be non-decreasing
  }
  EXPECT_TRUE(LoadTimedWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n"
           "0,a,1,0.9\n";  // task indices start at 0 within a submission
  }
  EXPECT_TRUE(LoadTimedWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n"
           "0,a,0,0.9\n0,a,2,0.9\n";  // index gap
  }
  EXPECT_TRUE(LoadTimedWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n"
           "0,a,0,0.9\n0,a,1,0.8\n0,a,0,0.9\n";  // backwards in submission
  }
  EXPECT_TRUE(LoadTimedWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "arrival_ms,requester,task,threshold\n";  // empty
  }
  EXPECT_TRUE(LoadTimedWorkloadCsv(path_).status().IsInvalidArgument());
  EXPECT_TRUE(LoadTimedWorkloadCsv("/no/such.csv").status().IsIOError());
}

TEST_F(ModelIoTest, BatchWorkloadRejectsBadIndexSequences) {
  {
    std::ofstream out(path_);
    out << "task,threshold\n1,0.9\n";  // must start at 0
  }
  EXPECT_TRUE(LoadBatchWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "task,threshold\n0,0.9\n2,0.9\n";  // gap
  }
  EXPECT_TRUE(LoadBatchWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "task,threshold\n0,0.9\n1,0.8\n0,0.9\n";  // goes backwards
  }
  EXPECT_TRUE(LoadBatchWorkloadCsv(path_).status().IsInvalidArgument());
  {
    std::ofstream out(path_);
    out << "task,threshold\n";  // no rows
  }
  EXPECT_TRUE(LoadBatchWorkloadCsv(path_).status().IsInvalidArgument());
}

}  // namespace
}  // namespace slade
