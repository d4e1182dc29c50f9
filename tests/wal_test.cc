// WAL format and recovery semantics: frame round-trips, segment rotation
// and retention, torn-tail / corruption handling (the crash cases a
// kill -9 or a bad disk can produce), and the group-commit batching
// machinery. The corruption tests build "crash images" byte-surgically --
// truncating and bit-flipping real segment files at offsets derived from
// WalAppendResult -- so every tear the recovery path claims to handle is
// actually exercised.

#include "durability/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace slade {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("wal_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalOptions Options() {
    WalOptions options;
    options.dir = dir_.string();
    return options;
  }

  /// Truncates `path` to `size` bytes, like a crash mid-write would.
  static void Truncate(const std::string& path, uint64_t size) {
    fs::resize_file(path, size);
  }

  /// Flips one bit at `offset` in `path`.
  static void FlipBit(const std::string& path, uint64_t offset) {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }

  /// Appends `size` garbage bytes to `path` (a torn partial frame).
  static void AppendGarbage(const std::string& path, size_t size) {
    std::ofstream file(path, std::ios::app | std::ios::binary);
    for (size_t i = 0; i < size; ++i) file.put(static_cast<char>(0x5a));
  }

  fs::path dir_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::string binary("\x00\x01\xff\x7f payload \n\r", 14);
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "first").ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kComplete, binary).ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kReject, "").ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kCheckpoint, "snap").ok());
  EXPECT_EQ((*writer)->last_seq(), 4u);
  writer->reset();

  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/false, &stats);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 4u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ((*records)[0].type, WalRecordType::kAdmit);
  EXPECT_EQ((*records)[0].payload, "first");
  EXPECT_EQ((*records)[1].type, WalRecordType::kComplete);
  EXPECT_EQ((*records)[1].payload, binary);
  EXPECT_EQ((*records)[2].type, WalRecordType::kReject);
  EXPECT_EQ((*records)[2].payload, "");
  EXPECT_EQ((*records)[3].type, WalRecordType::kCheckpoint);
  EXPECT_EQ((*records)[3].seq, 4u);
}

TEST_F(WalTest, MissingDirectoryReplaysEmpty) {
  WalRecoveryStats stats;
  auto records =
      ReplayWal((dir_ / "never_created").string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_EQ(stats.segments_scanned, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(WalTest, RotationSpreadsRecordsOverSegmentsAndReplaysAll) {
  WalOptions options = Options();
  options.segment_max_bytes = 64;  // every couple of records rotates
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 50; ++i) {
    auto result = (*writer)->Append(WalRecordType::kAdmit,
                                    "record-" + std::to_string(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const WalStats stats = (*writer)->stats();
  EXPECT_GT(stats.segments_created, 5u);
  EXPECT_GT((*writer)->SegmentPaths().size(), 5u);
  writer->reset();

  WalRecoveryStats recovery;
  auto records = ReplayWal(dir_.string(), /*repair=*/false, &recovery);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 50u);
  EXPECT_GT(recovery.segments_scanned, 5u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ((*records)[i].payload, "record-" + std::to_string(i));
    EXPECT_EQ((*records)[i].seq, static_cast<uint64_t>(i + 1));
  }
  // Segment numbers never decrease along the replay order.
  for (size_t i = 1; i < records->size(); ++i) {
    EXPECT_GE((*records)[i].segment, (*records)[i - 1].segment);
  }
}

TEST_F(WalTest, RetentionDeletesOnlyFullyDeadSealedSegments) {
  WalOptions options = Options();
  options.segment_max_bytes = 1;  // one record per segment
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append(WalRecordType::kAdmit, std::to_string(i))
                    .ok());
  }
  const size_t before = (*writer)->SegmentPaths().size();
  // Records 1..3 are dead, 4+ live: only segments holding exclusively
  // seq < 4 may go; the active segment survives regardless.
  EXPECT_GT((*writer)->ReleasableSegments(4), 0u);
  ASSERT_TRUE((*writer)->ReleaseSealedThrough(4).ok());
  const size_t after = (*writer)->SegmentPaths().size();
  EXPECT_LT(after, before);
  EXPECT_EQ((*writer)->ReleasableSegments(4), 0u);  // idempotent
  writer->reset();

  WalRecoveryStats recovery;
  auto records = ReplayWal(dir_.string(), /*repair=*/false, &recovery);
  ASSERT_TRUE(records.ok());
  // Every record >= seq 4 survived the release.
  ASSERT_GE(records->size(), 3u);
  EXPECT_EQ(records->back().payload, "5");
}

TEST_F(WalTest, TornLengthPrefixIsCutAtLastValidFrame) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "kept").ok());
  const std::string segment = (*writer)->SegmentPaths().back();
  writer->reset();

  AppendGarbage(segment, 4);  // fewer bytes than a frame header
  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "kept");
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.truncated_bytes, 4u);
  EXPECT_EQ(stats.truncate_reason, "truncated length prefix");

  // repair=true physically removed the tear: a second replay is clean
  // and a fresh writer opens fine.
  WalRecoveryStats again;
  ASSERT_TRUE(ReplayWal(dir_.string(), /*repair=*/false, &again).ok());
  EXPECT_FALSE(again.truncated);
  EXPECT_TRUE(WalWriter::Open(Options()).ok());
}

TEST_F(WalTest, TornRecordBodyIsCutAtLastValidFrame) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "kept").ok());
  auto second = (*writer)->Append(WalRecordType::kComplete,
                                  std::string(100, 'x'));
  ASSERT_TRUE(second.ok());
  const std::string segment = (*writer)->SegmentPaths().back();
  writer->reset();

  // Cut into the second frame's payload: header parses, body is short.
  Truncate(segment, second->end_offset - 10);
  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "kept");
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.truncate_reason, "truncated record body");
}

TEST_F(WalTest, CrcMismatchStopsReplayAtTheFlippedFrame) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());
  auto first = (*writer)->Append(WalRecordType::kAdmit, "good-1");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "corrupted").ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "unreachable").ok());
  const std::string segment = (*writer)->SegmentPaths().back();
  writer->reset();

  // Flip a payload bit of the SECOND record: the first survives, and the
  // third -- though intact on disk -- is behind the tear and dropped.
  FlipBit(segment, first->end_offset + 8 + 3);
  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "good-1");
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.truncate_reason, "crc mismatch");
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST_F(WalTest, ZeroLengthFrameIsTreatedAsTornTail) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "kept").ok());
  const std::string segment = (*writer)->SegmentPaths().back();
  writer->reset();

  // A run of zero bytes where a frame should start (preallocated-but-
  // unwritten tail, as some filesystems leave after a crash).
  std::ofstream file(segment, std::ios::app | std::ios::binary);
  for (int i = 0; i < 16; ++i) file.put('\0');
  file.close();

  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.truncate_reason, "zero-length record");
}

TEST_F(WalTest, EmptySegmentFileReplaysCleanly) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "kept").ok());
  writer->reset();
  // A writer that crashed right after creating its fresh segment leaves a
  // zero-length file above the sealed ones.
  std::ofstream(dir_ / "wal-00000099.log").close();

  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/false, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "kept");
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.segments_scanned, 2u);
}

TEST_F(WalTest, CorruptionInASealedSegmentDropsEveryLaterSegment) {
  WalOptions options = Options();
  options.segment_max_bytes = 1;  // one record per segment
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "one").ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "two").ok());
  ASSERT_TRUE((*writer)->Append(WalRecordType::kAdmit, "three").ok());
  const auto paths = (*writer)->SegmentPaths();
  ASSERT_GE(paths.size(), 3u);
  writer->reset();

  FlipBit(paths[1], 9);  // corrupt the middle segment's record
  WalRecoveryStats stats;
  auto records = ReplayWal(dir_.string(), /*repair=*/true, &stats);
  ASSERT_TRUE(records.ok());
  // Replay keeps the prefix before the corruption and drops everything
  // after it -- including the intact third segment (the commit protocol
  // can never produce a valid record behind an invalid one; if the disk
  // did, the conservative answer is the contiguous durable prefix).
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "one");
  EXPECT_TRUE(stats.truncated);
  // Repair deleted the later segments; a clean replay agrees.
  WalRecoveryStats again;
  auto repaired = ReplayWal(dir_.string(), /*repair=*/false, &again);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->size(), 1u);
  EXPECT_FALSE(again.truncated);
}

TEST_F(WalTest, BufferedAppendsShareOneFsyncPerSyncBarrier) {
  WalOptions options = Options();
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok());
  const uint64_t fsyncs_before = (*writer)->stats().fsyncs;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*writer)
                    ->AppendBuffered(WalRecordType::kComplete,
                                     "outcome-" + std::to_string(i))
                    .ok());
  }
  EXPECT_EQ((*writer)->stats().durable_records, 0u);
  ASSERT_TRUE((*writer)->Sync().ok());
  const WalStats stats = (*writer)->stats();
  EXPECT_EQ(stats.fsyncs - fsyncs_before, 1u);  // 100 records, one barrier
  EXPECT_EQ(stats.durable_records, 100u);
  EXPECT_EQ(stats.commit_batch_max, 100u);
  writer->reset();

  auto records = ReplayWal(dir_.string(), /*repair=*/false, nullptr);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 100u);
}

TEST_F(WalTest, LoneCommitsDoNotWaitForCompanions) {
  // A single appender never has companions, so a leader that slept hoping
  // for some would pay that sleep on every record. With fsync off each
  // commit is one write() to the page cache, a few microseconds; a budget
  // of 100 us per record leaves room for sanitizers yet fails a leader
  // that sleeps 200 us, a typical group-commit delay.
  WalOptions options = Options();
  options.fsync = false;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok());
  constexpr int kRecords = 200;
  constexpr int64_t kBudgetMicros = int64_t{kRecords} * 100;
  const std::string payload(128, 'x');
  // Such a sleep would put a floor under every round, while host
  // preemption only ever adds time: the fastest of a few rounds is the
  // log's own cost.
  const auto fastest_round_micros = [&](const auto& commit_one) {
    int64_t fastest = std::numeric_limits<int64_t>::max();
    for (int round = 0; round < 5 && fastest >= kBudgetMicros; ++round) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kRecords; ++i) commit_one();
      const std::chrono::microseconds elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start);
      fastest = std::min<int64_t>(fastest, elapsed.count());
    }
    return fastest;
  };

  const int64_t admit_micros = fastest_round_micros([&] {
    EXPECT_TRUE((*writer)->Append(WalRecordType::kAdmit, payload).ok());
  });
  EXPECT_LT(admit_micros, kBudgetMicros) << kRecords << " lone Append calls";
  const int64_t barrier_micros = fastest_round_micros([&] {
    EXPECT_TRUE(
        (*writer)->AppendBuffered(WalRecordType::kComplete, payload).ok());
    EXPECT_TRUE((*writer)->Sync().ok());
  });
  EXPECT_LT(barrier_micros, kBudgetMicros)
      << kRecords << " AppendBuffered + Sync barriers";

  const WalStats stats = (*writer)->stats();
  EXPECT_EQ(stats.commit_batches, stats.records_appended);  // one per call
  EXPECT_EQ(stats.durable_records, stats.records_appended);
}

TEST_F(WalTest, ConcurrentAppendersAllBecomeDurableInOrder) {
  auto writer = WalWriter::Open(Options());
  ASSERT_TRUE(writer.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            std::to_string(t) + ":" + std::to_string(i);
        auto result = (*writer)->Append(WalRecordType::kAdmit, payload);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const WalStats stats = (*writer)->stats();
  EXPECT_EQ(stats.records_appended, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(stats.durable_records, stats.records_appended);
  // Every commit covers at least one record; concurrent appenders share.
  EXPECT_GE(stats.commit_batches, 1u);
  EXPECT_LE(stats.commit_batches, stats.records_appended);
  writer->reset();

  auto records = ReplayWal(dir_.string(), /*repair=*/false, nullptr);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), size_t{kThreads * kPerThread});
  // Each thread's own records replay in its program order.
  std::vector<int> next(kThreads, 0);
  for (const WalRecoveredRecord& record : *records) {
    const size_t colon = record.payload.find(':');
    ASSERT_NE(colon, std::string::npos);
    const int t = std::stoi(record.payload.substr(0, colon));
    const int i = std::stoi(record.payload.substr(colon + 1));
    EXPECT_EQ(i, next[t]) << "thread " << t;
    next[t] = i + 1;
  }
}

}  // namespace
}  // namespace slade
