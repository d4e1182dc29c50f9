// Crash-injection property tests for the durable serving path.
//
// The property under test: an acknowledged submission is never lost and
// a submission id is never billed twice, at every kill point of the
// submit path --
//
//   (1) before the admit record      -> the submission never existed
//   (2) admit durable, not completed -> recovered as pending, solved once
//   (3) outcome buffered, not synced -> still pending (the ack was never
//                                       sent), solved once
//   (4) outcome durable, pre-ack     -> recovered as completed, a retry
//                                       replays it without re-billing
//
// "Crashes" are deterministic: the live WAL directory is snapshotted
// (byte-for-byte file copies) at the kill point and recovery runs on the
// snapshot, exactly as if the process had been SIGKILLed there -- plus
// torn-write and bit-flip variants of the same images. The real
// kill -9 / restart path is covered end to end by the CI crash-recovery
// smoke (.github/workflows).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "binmodel/profile_model.h"
#include "durability/journal.h"
#include "engine/streaming_engine.h"

namespace slade {
namespace {

namespace fs = std::filesystem;

CrowdsourcingTask MakeTask(std::vector<double> thresholds) {
  auto task = CrowdsourcingTask::FromThresholds(std::move(thresholds));
  EXPECT_TRUE(task.ok());
  return std::move(task).ValueOrDie();
}

SubmissionOutcome MakeOutcome(double cost) {
  SubmissionOutcome outcome;
  outcome.cost = cost;
  outcome.bins_posted = 2;
  outcome.flush_id = 1;
  outcome.num_tasks = 1;
  outcome.num_atomic_tasks = 1;
  outcome.latency_seconds = 0.1;
  return outcome;
}

class DurabilityRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            (std::string("durability_recovery_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  JournalOptions Options(const std::string& dir) {
    JournalOptions options;
    options.wal.dir = (root_ / dir).string();
    return options;
  }

  /// Snapshots the live WAL directory: what a kill -9 at this instant
  /// would leave on disk (modulo the page cache, which the WAL's fsync
  /// discipline is exactly about -- buffered-not-synced records may be
  /// in these files, synced records must be).
  std::string TakeCrashImage(const std::string& live_dir,
                             const std::string& image_name) {
    const fs::path source = root_ / live_dir;
    const fs::path image = root_ / image_name;
    fs::create_directories(image);
    for (const auto& entry : fs::directory_iterator(source)) {
      fs::copy_file(entry.path(), image / entry.path().filename());
    }
    return image.string();
  }

  /// Cuts the last `bytes` bytes off the newest segment in `dir`.
  static void TearTail(const std::string& dir, uint64_t bytes) {
    const auto paths = ListWalSegmentPaths(dir);
    ASSERT_FALSE(paths.empty());
    const uint64_t size = fs::file_size(paths.back());
    ASSERT_GE(size, bytes);
    fs::resize_file(paths.back(), size - bytes);
  }

  /// Flips one bit `back_offset` bytes before the end of the newest
  /// segment in `dir`.
  static void FlipBitFromEnd(const std::string& dir, uint64_t back_offset) {
    const auto paths = ListWalSegmentPaths(dir);
    ASSERT_FALSE(paths.empty());
    const uint64_t size = fs::file_size(paths.back());
    ASSERT_GT(size, back_offset);
    std::fstream file(paths.back(),
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto pos = static_cast<std::streamoff>(size - 1 - back_offset);
    file.seekg(pos);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(pos);
    file.write(&byte, 1);
  }

  fs::path root_;
};

TEST_F(DurabilityRecoveryTest, KillBeforeAppendLeavesNoTrace) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  const std::string image = TakeCrashImage("live", "image");
  JournalOptions recover_options = Options("live");
  recover_options.wal.dir = image;
  auto recovered = SubmissionJournal::Open(recover_options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->pending.empty());
  EXPECT_EQ(recovered->journal->stats().recovery.outcomes_recovered, 0u);
}

TEST_F(DurabilityRecoveryTest, KillAfterAdmitRecoversThePendingSubmission) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->journal
                  ->RecordAdmit("sub-1", "alice", {MakeTask({0.9, 0.8})})
                  .ok());
  const std::string image = TakeCrashImage("live", "image");

  JournalOptions recover_options;
  recover_options.wal.dir = image;
  auto recovered = SubmissionJournal::Open(recover_options);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->pending.size(), 1u);
  EXPECT_EQ(recovered->pending[0].submission_id, "sub-1");
  EXPECT_EQ(recovered->pending[0].requester, "alice");
  ASSERT_EQ(recovered->pending[0].tasks.size(), 1u);
  EXPECT_EQ(recovered->pending[0].tasks[0].thresholds(),
            std::vector<double>({0.9, 0.8}));
}

TEST_F(DurabilityRecoveryTest, KillAfterBufferedCompleteStaysPending) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->journal
                  ->RecordAdmit("sub-1", "alice", {MakeTask({0.9})})
                  .ok());
  // Outcome recorded but the durability barrier never ran: the crash
  // happens before the client could have been acked.
  ASSERT_TRUE(
      opened->journal->RecordComplete("sub-1", MakeOutcome(1.0)).ok());
  const std::string image = TakeCrashImage("live", "image");

  JournalOptions recover_options;
  recover_options.wal.dir = image;
  auto recovered = SubmissionJournal::Open(recover_options);
  ASSERT_TRUE(recovered.ok());
  // The complete record may or may not have reached the file (it was
  // buffered); either way no ack went out, so both "pending again" and
  // "completed" are safe. What must NOT happen: the id vanishing.
  SubmissionOutcome outcome;
  const bool completed =
      recovered->journal->LookupCompleted("sub-1", &outcome);
  if (!completed) {
    ASSERT_EQ(recovered->pending.size(), 1u);
    EXPECT_EQ(recovered->pending[0].submission_id, "sub-1");
  } else {
    EXPECT_TRUE(recovered->pending.empty());
  }
}

TEST_F(DurabilityRecoveryTest, KillAfterSyncNeverLosesTheAckedOutcome) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->journal
                  ->RecordAdmit("sub-1", "alice", {MakeTask({0.9})})
                  .ok());
  ASSERT_TRUE(
      opened->journal->RecordComplete("sub-1", MakeOutcome(2.5)).ok());
  ASSERT_TRUE(opened->journal->SyncOutcomes().ok());
  // The ack is on the wire; kill here.
  const std::string image = TakeCrashImage("live", "image");

  JournalOptions recover_options;
  recover_options.wal.dir = image;
  auto recovered = SubmissionJournal::Open(recover_options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->pending.empty());
  SubmissionOutcome outcome;
  ASSERT_TRUE(recovered->journal->LookupCompleted("sub-1", &outcome));
  EXPECT_DOUBLE_EQ(outcome.cost, 2.5);  // a duplicate replays, no re-bill
}

TEST_F(DurabilityRecoveryTest, TornWriteDegradesToThePreviousSafeState) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->journal
                  ->RecordAdmit("sub-1", "alice", {MakeTask({0.9})})
                  .ok());
  ASSERT_TRUE(
      opened->journal->RecordComplete("sub-1", MakeOutcome(1.0)).ok());
  ASSERT_TRUE(opened->journal->SyncOutcomes().ok());
  const std::string image = TakeCrashImage("live", "image");
  TearTail(image, 5);  // the disk tore the tail of the complete record

  JournalOptions recover_options;
  recover_options.wal.dir = image;
  auto recovered = SubmissionJournal::Open(recover_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const JournalStats stats = recovered->journal->stats();
  EXPECT_TRUE(stats.recovery.truncated);
  // The tear ate the outcome, so the submission rolls back to pending --
  // the consistent state one step earlier. It will be solved (and billed)
  // exactly once after re-admission.
  ASSERT_EQ(recovered->pending.size(), 1u);
  EXPECT_EQ(recovered->pending[0].submission_id, "sub-1");
  SubmissionOutcome outcome;
  EXPECT_FALSE(recovered->journal->LookupCompleted("sub-1", &outcome));
}

TEST_F(DurabilityRecoveryTest, BitFlipNeverCrashesRecovery) {
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->journal
                  ->RecordAdmit("sub-1", "alice", {MakeTask({0.9})})
                  .ok());
  ASSERT_TRUE(
      opened->journal->RecordComplete("sub-1", MakeOutcome(1.0)).ok());
  ASSERT_TRUE(opened->journal->SyncOutcomes().ok());

  // Flip a bit at several depths from the tail; every image must recover
  // without crashing, flag the corruption, and keep a consistent prefix.
  for (const uint64_t back : {1ull, 10ull, 25ull}) {
    const std::string image =
        TakeCrashImage("live", "image-" + std::to_string(back));
    FlipBitFromEnd(image, back);
    JournalOptions recover_options;
    recover_options.wal.dir = image;
    auto recovered = SubmissionJournal::Open(recover_options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const JournalStats stats = recovered->journal->stats();
    EXPECT_TRUE(stats.recovery.truncated);
    // Consistency: the id is either pending or completed, never both,
    // never silently gone while an earlier record mentions it.
    SubmissionOutcome outcome;
    const bool completed =
        recovered->journal->LookupCompleted("sub-1", &outcome);
    const bool pending =
        !recovered->pending.empty() &&
        recovered->pending[0].submission_id == "sub-1";
    EXPECT_NE(completed, pending)
        << "flip at -" << back << ": completed=" << completed
        << " pending=" << pending;
  }
}

// ---- Engine-level properties (the full Submit path over the journal) --

StreamingOptions EngineOptionsWith(DurabilityHooks* hooks) {
  StreamingOptions options;
  options.max_pending_submissions = 1;  // flush every admission
  options.num_threads = 2;
  options.durability = hooks;
  return options;
}

TEST_F(DurabilityRecoveryTest, AckedSubmissionSurvivesACrashImage) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());

  std::string submission_id;
  double acked_cost = 0.0;
  {
    StreamingEngine engine(*profile,
                           EngineOptionsWith(opened->journal.get()));
    auto future =
        engine.Submit("alice", {MakeTask({0.9, 0.8})}, "acked-1");
    auto plan = future.get();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // future.get() returned: the client is considered acked from here.
    submission_id = plan->submission_id;
    acked_cost = plan->cost;
    EXPECT_EQ(submission_id, "acked-1");
    EXPECT_FALSE(plan->duplicate);

    const std::string image = TakeCrashImage("live", "image");
    JournalOptions recover_options;
    recover_options.wal.dir = image;
    auto recovered = SubmissionJournal::Open(recover_options);
    ASSERT_TRUE(recovered.ok());
    SubmissionOutcome outcome;
    ASSERT_TRUE(recovered->journal->LookupCompleted("acked-1", &outcome))
        << "acked submission lost by the crash image";
    EXPECT_DOUBLE_EQ(outcome.cost, acked_cost);
    EXPECT_TRUE(recovered->pending.empty());
  }
}

TEST_F(DurabilityRecoveryTest, EightThreadsResubmittingOneIdBillOnce) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  auto opened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(opened.ok());
  StreamingEngine engine(*profile,
                         EngineOptionsWith(opened->journal.get()));

  constexpr int kThreads = 8;
  std::atomic<int> originals{0};
  std::atomic<int> duplicates{0};
  std::vector<double> costs(kThreads, -1.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (;;) {
        auto plan =
            engine.Submit("alice", {MakeTask({0.9, 0.85})}, "contended")
                .get();
        if (plan.ok()) {
          costs[t] = plan->cost;
          (plan->duplicate ? duplicates : originals).fetch_add(1);
          return;
        }
        // In-flight duplicate: the first attempt owns the id; retry
        // until its outcome is published.
        EXPECT_TRUE(plan.status().IsAlreadyExists())
            << plan.status().ToString();
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  engine.Drain();

  // Exactly one thread solved and was billed; all others replayed its
  // outcome at its exact cost.
  EXPECT_EQ(originals.load(), 1);
  EXPECT_EQ(duplicates.load(), kThreads - 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(costs[t], costs[0]) << "thread " << t;
  }
  const StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.submissions, 1u);  // one admission total
  EXPECT_EQ(stats.duplicate_hits, uint64_t{kThreads - 1});
  EXPECT_EQ(opened->journal->stats().completes, 1u);  // billed once
}

TEST_F(DurabilityRecoveryTest, RecoveredPendingIsReadmittedAndBilledOnce) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  {
    // Generation 1 admits two submissions and "crashes" before solving.
    auto opened = SubmissionJournal::Open(Options("live"));
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("lost-1", "alice", {MakeTask({0.9})})
                    .ok());
    ASSERT_TRUE(opened->journal
                    ->RecordAdmit("lost-2", "bob", {MakeTask({0.8, 0.7})})
                    .ok());
  }

  // Generation 2: the serve startup protocol.
  auto reopened = SubmissionJournal::Open(Options("live"));
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->pending.size(), 2u);
  StreamingEngine engine(*profile,
                         EngineOptionsWith(reopened->journal.get()));
  EXPECT_EQ(engine.ReplayRecovered(std::move(reopened->pending)), 2u);
  ASSERT_TRUE(reopened->journal->CommitRecovery().ok());
  engine.Drain();

  // Both recovered submissions were solved exactly once...
  EXPECT_EQ(reopened->journal->stats().completes, 2u);
  SubmissionOutcome outcome;
  ASSERT_TRUE(reopened->journal->LookupCompleted("lost-1", &outcome));
  ASSERT_TRUE(reopened->journal->LookupCompleted("lost-2", &outcome));
  // ...and a client retrying its lost request gets the original outcome.
  auto retry = engine.Submit("alice", {MakeTask({0.9})}, "lost-1").get();
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->duplicate);
}

}  // namespace
}  // namespace slade
