// SubmissionJournal semantics: admit/complete/reject pairing across
// restarts, idempotent-outcome recovery, checkpointing and clean
// shutdown, compaction that must never forget a billable outcome, and
// the bounded idempotency window.

#include "durability/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "binmodel/task.h"

namespace slade {
namespace {

namespace fs = std::filesystem;

CrowdsourcingTask MakeTask(std::vector<double> thresholds) {
  auto task = CrowdsourcingTask::FromThresholds(std::move(thresholds));
  EXPECT_TRUE(task.ok());
  return std::move(task).ValueOrDie();
}

SubmissionOutcome MakeOutcome(double cost, uint64_t flush_id) {
  SubmissionOutcome outcome;
  outcome.cost = cost;
  outcome.bins_posted = 3;
  outcome.flush_id = flush_id;
  outcome.num_tasks = 1;
  outcome.num_atomic_tasks = 2;
  outcome.latency_seconds = 0.25;
  return outcome;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("journal_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  JournalOptions Options() {
    JournalOptions options;
    options.wal.dir = dir_.string();
    return options;
  }

  fs::path dir_;
};

TEST_F(JournalTest, CompletedOutcomeSurvivesRestartPendingDoesNotLinger) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(opened->pending.empty());
    SubmissionJournal& journal = *opened->journal;
    ASSERT_TRUE(
        journal.RecordAdmit("id-1", "alice", {MakeTask({0.9, 0.8})}).ok());
    ASSERT_TRUE(journal.RecordComplete("id-1", MakeOutcome(1.5, 7)).ok());
    ASSERT_TRUE(journal.SyncOutcomes().ok());
    SubmissionOutcome outcome;
    EXPECT_TRUE(journal.LookupCompleted("id-1", &outcome));
    EXPECT_DOUBLE_EQ(outcome.cost, 1.5);
  }

  auto reopened = SubmissionJournal::Open(Options());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->pending.empty());  // id-1 is closed, not pending
  SubmissionOutcome outcome;
  ASSERT_TRUE(reopened->journal->LookupCompleted("id-1", &outcome));
  EXPECT_DOUBLE_EQ(outcome.cost, 1.5);
  EXPECT_EQ(outcome.flush_id, 7u);
  EXPECT_EQ(outcome.bins_posted, 3u);
  EXPECT_EQ(outcome.num_atomic_tasks, 2u);
  EXPECT_DOUBLE_EQ(outcome.latency_seconds, 0.25);
  const JournalStats stats = reopened->journal->stats();
  EXPECT_EQ(stats.recovery.outcomes_recovered, 1u);
  EXPECT_EQ(stats.recovery.pending_recovered, 0u);
  EXPECT_FALSE(stats.recovery.clean_shutdown);  // no final checkpoint
}

TEST_F(JournalTest, UnfinishedAdmitsRecoverInAdmissionOrderWithTasks) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    SubmissionJournal& journal = *opened->journal;
    ASSERT_TRUE(
        journal.RecordAdmit("a", "tenant-1", {MakeTask({0.9})}).ok());
    ASSERT_TRUE(journal
                    .RecordAdmit("b", "tenant-2",
                                 {MakeTask({0.8, 0.7}), MakeTask({0.95})})
                    .ok());
    ASSERT_TRUE(
        journal.RecordAdmit("c", "tenant-1", {MakeTask({0.85})}).ok());
    // Only b finishes; a and c are in flight when the "crash" happens.
    ASSERT_TRUE(journal.RecordComplete("b", MakeOutcome(2.0, 1)).ok());
    ASSERT_TRUE(journal.SyncOutcomes().ok());
  }

  auto reopened = SubmissionJournal::Open(Options());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->pending.size(), 2u);
  EXPECT_EQ(reopened->pending[0].submission_id, "a");
  EXPECT_EQ(reopened->pending[0].requester, "tenant-1");
  ASSERT_EQ(reopened->pending[0].tasks.size(), 1u);
  EXPECT_EQ(reopened->pending[0].tasks[0].thresholds(),
            std::vector<double>({0.9}));
  EXPECT_EQ(reopened->pending[1].submission_id, "c");
  // b's tasks round-tripped into its outcome instead.
  SubmissionOutcome outcome;
  EXPECT_TRUE(reopened->journal->LookupCompleted("b", &outcome));
  EXPECT_FALSE(reopened->journal->LookupCompleted("a", &outcome));
}

TEST_F(JournalTest, RejectClosesTheIdWithoutMakingItDedupable) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("shed-1", "alice", {MakeTask({0.9})})
                    .ok());
    ASSERT_TRUE(opened->journal->RecordReject("shed-1").ok());
    ASSERT_TRUE(opened->journal->SyncOutcomes().ok());
  }
  auto reopened = SubmissionJournal::Open(Options());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->pending.empty());  // closed, not re-admitted
  SubmissionOutcome outcome;
  // ...but a reject is not a billable outcome: a retry of the id is a
  // fresh submission, not a duplicate.
  EXPECT_FALSE(reopened->journal->LookupCompleted("shed-1", &outcome));
}

TEST_F(JournalTest, CleanShutdownIsDetectedAndSkipsNothingItShould) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    SubmissionJournal& journal = *opened->journal;
    ASSERT_TRUE(
        journal.RecordAdmit("id-1", "alice", {MakeTask({0.9})}).ok());
    ASSERT_TRUE(journal.RecordComplete("id-1", MakeOutcome(1.0, 1)).ok());
    ASSERT_TRUE(journal.SyncOutcomes().ok());
    ASSERT_TRUE(journal.WriteCheckpoint().ok());
    ASSERT_TRUE(journal.Compact().ok());
  }
  auto reopened = SubmissionJournal::Open(Options());
  ASSERT_TRUE(reopened.ok());
  const JournalStats stats = reopened->journal->stats();
  EXPECT_TRUE(stats.recovery.clean_shutdown);
  EXPECT_TRUE(reopened->pending.empty());
  SubmissionOutcome outcome;
  EXPECT_TRUE(reopened->journal->LookupCompleted("id-1", &outcome));
}

TEST_F(JournalTest, CompactionNeverForgetsABillableOutcome) {
  JournalOptions options = Options();
  options.wal.segment_max_bytes = 1;  // every record seals a segment
  {
    auto opened = SubmissionJournal::Open(options);
    ASSERT_TRUE(opened.ok());
    SubmissionJournal& journal = *opened->journal;
    for (int i = 0; i < 8; ++i) {
      const std::string id = "id-" + std::to_string(i);
      ASSERT_TRUE(
          journal.RecordAdmit(id, "alice", {MakeTask({0.9})}).ok());
      ASSERT_TRUE(
          journal.RecordComplete(id, MakeOutcome(1.0 + i, i)).ok());
      ASSERT_TRUE(journal.SyncOutcomes().ok());
      ASSERT_TRUE(journal.Compact().ok());
    }
    EXPECT_GT(journal.stats().wal.segments_deleted, 0u);
  }
  // The complete records for early ids live in deleted segments now; the
  // checkpoint Compact wrote before releasing them must preserve every
  // outcome, or a crash here would re-bill a duplicate.
  auto reopened = SubmissionJournal::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->pending.empty());
  for (int i = 0; i < 8; ++i) {
    SubmissionOutcome outcome;
    ASSERT_TRUE(reopened->journal->LookupCompleted(
        "id-" + std::to_string(i), &outcome))
        << "outcome lost for id-" << i;
    EXPECT_DOUBLE_EQ(outcome.cost, 1.0 + i);
  }
}

TEST_F(JournalTest, CommitRecoveryDropsTheOldGenerationButKeepsState) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("id-1", "alice", {MakeTask({0.9})})
                    .ok());
    ASSERT_TRUE(
        opened->journal->RecordComplete("id-1", MakeOutcome(1.0, 1)).ok());
    ASSERT_TRUE(opened->journal->SyncOutcomes().ok());
  }
  size_t segments_after_commit = 0;
  {
    auto reopened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(reopened.ok());
    const size_t before = ListWalSegmentPaths(dir_.string()).size();
    ASSERT_TRUE(reopened->journal->CommitRecovery().ok());
    segments_after_commit = ListWalSegmentPaths(dir_.string()).size();
    EXPECT_LT(segments_after_commit, before);
  }
  // Third generation: the checkpoint alone carries the outcome forward.
  auto third = SubmissionJournal::Open(Options());
  ASSERT_TRUE(third.ok());
  SubmissionOutcome outcome;
  EXPECT_TRUE(third->journal->LookupCompleted("id-1", &outcome));
  EXPECT_DOUBLE_EQ(outcome.cost, 1.0);
}

TEST_F(JournalTest, GeneratedIdsAreUniqueAcrossRestarts) {
  std::set<std::string> ids;
  for (int generation = 0; generation < 3; ++generation) {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 5; ++i) {
      const std::string id = opened->journal->GenerateSubmissionId();
      EXPECT_TRUE(ids.insert(id).second) << "duplicate auto id " << id;
      // Ids must hit the log so the NEXT generation numbers above them.
      ASSERT_TRUE(opened->journal
                      ->RecordAdmit(id, "alice", {MakeTask({0.9})})
                      .ok());
      ASSERT_TRUE(
          opened->journal->RecordComplete(id, MakeOutcome(1.0, 1)).ok());
      ASSERT_TRUE(opened->journal->SyncOutcomes().ok());
    }
  }
  EXPECT_EQ(ids.size(), 15u);
}

TEST_F(JournalTest, IdempotencyWindowEvictsOldestFirst) {
  JournalOptions options = Options();
  options.max_retained_outcomes = 2;
  auto opened = SubmissionJournal::Open(options);
  ASSERT_TRUE(opened.ok());
  SubmissionJournal& journal = *opened->journal;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "id-" + std::to_string(i);
    ASSERT_TRUE(journal.RecordAdmit(id, "alice", {MakeTask({0.9})}).ok());
    ASSERT_TRUE(journal.RecordComplete(id, MakeOutcome(1.0, i)).ok());
    ASSERT_TRUE(journal.SyncOutcomes().ok());
  }
  SubmissionOutcome outcome;
  EXPECT_FALSE(journal.LookupCompleted("id-0", &outcome));  // aged out
  EXPECT_TRUE(journal.LookupCompleted("id-1", &outcome));
  EXPECT_TRUE(journal.LookupCompleted("id-2", &outcome));
  EXPECT_EQ(journal.stats().retained_outcomes, 2u);
}

TEST_F(JournalTest, DuplicateAdmitRecordsAreIgnoredOnReplay) {
  {
    auto opened = SubmissionJournal::Open(Options());
    ASSERT_TRUE(opened.ok());
    // Re-admission after recovery writes a second admit for the same id
    // (the first one lives in an older generation); replay must treat
    // the id as ONE submission.
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("dup", "alice", {MakeTask({0.9})})
                    .ok());
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("dup", "alice", {MakeTask({0.9})})
                    .ok());
  }
  auto reopened = SubmissionJournal::Open(Options());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->pending.size(), 1u);
  EXPECT_EQ(reopened->pending[0].submission_id, "dup");
}

}  // namespace
}  // namespace slade
