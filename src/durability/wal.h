// Copyright (c) the SLADE reproduction authors.
// Append-only, segment-rotated write-ahead log with group-commit fsync
// batching: the durability substrate under the streaming front end.
//
// Why: an acknowledged submission must survive `kill -9`. The serving
// stack therefore journals every admission and every delivered outcome
// here *before* acknowledging it to the client; on restart the journal
// (durability/journal.h) replays this log to reconstruct the pending
// queue and the idempotency map. The WAL layer itself is payload-agnostic:
// it stores typed byte records and guarantees exactly two things --
// records that were durable (covered by an fsync) before a crash are
// replayed intact and in order, and a torn or corrupt tail is detected
// (never silently half-read) and cut at the last whole valid record.
//
// On-disk format. A log is a directory of segments `wal-<seq>.log`
// (seq strictly increasing, never reused). Each segment is a sequence of
// frames:
//
//   +----------+-----------------+----------+------------------+
//   | len: u32 | crc: u32 masked | type: u8 | payload: len - 1 |
//   +----------+-----------------+----------+------------------+
//    little-endian; crc = masked CRC32C over (type byte + payload)
//
// A frame never spans segments. The active segment rotates once it
// exceeds segment_max_bytes; rotation seals the old segment with an
// fsync before the new one is created (and the directory entry is
// fsynced), so a later segment existing implies every earlier segment is
// complete. Recovery exploits that: replay stops at the first invalid
// frame anywhere and treats everything after it as lost tail.
//
// Group commit. Any number of threads may Append() concurrently; each
// call blocks until its record is durable. The first thread to need a
// commit becomes the leader: it immediately writes and fsyncs everything
// in the shared buffer with ONE fsync and wakes every waiter whose record
// it covered. It never sleeps waiting for companions; the write+fsync in
// flight is the batching window -- records appended meanwhile queue up
// and the next leader commits them together (LevelDB's writer queue,
// PostgreSQL's default commit_delay = 0). A lone record therefore pays
// one write+fsync and nothing more, while under a many-worker HTTP front
// end the batches grow with the fsync latency (see bench/bench_wal.cc).
// AppendBuffered()/Sync() expose the same machinery batch-wise: the
// streaming engine journals a whole micro-batch of outcomes and pays one
// durability barrier before resolving any future.
//
// Retention. The caller tracks which record sequence numbers are still
// live (e.g. admitted-but-unresolved submissions) and calls
// ReleaseSealedThrough(min_live_seq); the log deletes sealed segments
// that hold only records below it. The active segment is never deleted.

#ifndef SLADE_DURABILITY_WAL_H_
#define SLADE_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace slade {

/// \brief Record types multiplexed over one log. The WAL treats them as
/// opaque tags; durability/journal.h defines the payloads.
enum class WalRecordType : uint8_t {
  kAdmit = 1,       ///< submission admitted (id, requester, tasks)
  kComplete = 2,    ///< submission delivered (id, outcome summary)
  kReject = 3,      ///< submission closed without a billable outcome (id)
  kCheckpoint = 4,  ///< clean-shutdown snapshot of the idempotency map
};

struct WalOptions {
  /// Directory holding the segments; created (one level) if missing.
  std::string dir;
  /// Rotate the active segment once it exceeds this size. The check runs
  /// at commit granularity, so a segment can overshoot by one batch.
  uint64_t segment_max_bytes = 64ull << 20;
  /// When false, commits write() but skip fsync: records survive process
  /// death but not host death. For benchmarks and tests only.
  bool fsync = true;
};

/// \brief Where an appended record landed: its global sequence number
/// (1-based, dense, restart-monotonic within one writer), the segment
/// that holds it, and the segment byte offset one past its frame.
struct WalAppendResult {
  uint64_t seq = 0;
  uint64_t segment = 0;
  uint64_t end_offset = 0;
};

/// \brief Writer counters, readable at any time via stats().
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;  ///< frame bytes, headers included
  uint64_t fsyncs = 0;
  uint64_t commit_batches = 0;      ///< write+fsync rounds
  double commit_batch_p50 = 0.0;    ///< records per batch, median
  double commit_batch_p95 = 0.0;
  uint64_t commit_batch_max = 0;
  uint64_t segments_created = 0;
  uint64_t segments_deleted = 0;
  uint64_t active_segment = 0;
  uint64_t durable_records = 0;  ///< seq covered by the last fsync
};

/// \brief Append side of the log. Thread-safe; every public method may be
/// called from any thread. A writer OWNS its directory: recovery must
/// happen before Open (Open never reads old segments, it starts a fresh
/// one above them) and no second writer may share the directory.
class WalWriter {
 public:
  /// Creates `options.dir` if missing and opens a fresh active segment
  /// numbered above every existing one. Fails with IOError when the
  /// directory cannot be created or the segment cannot be opened.
  static Result<std::unique_ptr<WalWriter>> Open(WalOptions options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record and blocks until it is durable (group commit).
  /// After an IO error the writer is dead: every call fails with the
  /// original error.
  Result<WalAppendResult> Append(WalRecordType type, std::string_view payload);

  /// Appends without waiting for durability; pair with Sync(). The
  /// returned end_offset/segment name where the record WILL land if no
  /// rotation intervenes (rotation only moves not-yet-committed bytes).
  Result<WalAppendResult> AppendBuffered(WalRecordType type,
                                         std::string_view payload);

  /// Durability barrier: every record appended before this call is
  /// durable when it returns.
  Status Sync();

  /// Deletes sealed segments whose every record has seq < `min_live_seq`.
  /// The active segment always survives. Returns the first IO error.
  Status ReleaseSealedThrough(uint64_t min_live_seq);

  /// Number of sealed segments ReleaseSealedThrough(min_live_seq) would
  /// delete right now (lets a caller gate pre-release work, e.g. writing
  /// a checkpoint, on whether anything is actually reclaimable).
  uint64_t ReleasableSegments(uint64_t min_live_seq) const;

  /// Sequence number the next Append will receive, minus one (i.e. the
  /// last assigned seq; 0 before the first append).
  uint64_t last_seq() const;

  WalStats stats() const;
  const WalOptions& options() const { return options_; }
  /// Paths of all live segments, oldest first (test/tooling aid).
  std::vector<std::string> SegmentPaths() const;

 private:
  explicit WalWriter(WalOptions options) : options_(std::move(options)) {}

  Status OpenNewSegmentLocked();
  /// Blocks until `seq` is durable, becoming the commit leader when none
  /// is active. Requires `lock` held on entry; may release and reacquire.
  Status CommitUpToLocked(uint64_t seq, std::unique_lock<std::mutex>& lock);
  Result<WalAppendResult> AppendLocked(WalRecordType type,
                                       std::string_view payload);

  const WalOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable commit_cv_;
  std::string buffer_;          ///< framed bytes not yet written
  uint64_t appended_seq_ = 0;   ///< last assigned record seq
  uint64_t durable_seq_ = 0;    ///< last seq covered by a commit
  bool committer_active_ = false;
  Status io_error_;             ///< sticky: first write/fsync failure

  int fd_ = -1;                 ///< active segment
  uint64_t active_segment_ = 0;
  uint64_t segment_offset_ = 0;  ///< committed bytes in the active segment
  /// Sealed segments: segment seq -> last record seq it contains.
  std::map<uint64_t, uint64_t> sealed_last_seq_;

  WalStats stats_;
  std::map<uint64_t, uint64_t> batch_size_counts_;  ///< batch size -> count
};

/// \brief One replayed record.
struct WalRecoveredRecord {
  WalRecordType type = WalRecordType::kAdmit;
  std::string payload;
  uint64_t segment = 0;
  uint64_t seq = 0;  ///< 1-based replay order across all segments
};

/// \brief What recovery saw, for operators and tests.
struct WalRecoveryStats {
  uint64_t segments_scanned = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_scanned = 0;
  /// Bytes dropped at the first invalid frame (rest of that segment plus
  /// every later segment).
  uint64_t truncated_bytes = 0;
  bool truncated = false;
  std::string truncate_reason;  ///< empty when !truncated
};

/// \brief Replays every record in `dir`, oldest segment first, stopping
/// at the first torn or corrupt frame (a crash can only tear the tail;
/// anything after a tear is unreachable by the commit protocol). With
/// `repair` set, the corrupt segment is truncated back to its last valid
/// frame (and fsynced) before later segments are deleted, so the directory
/// is clean for a new WalWriter. A missing directory replays as empty.
Result<std::vector<WalRecoveredRecord>> ReplayWal(const std::string& dir,
                                                  bool repair,
                                                  WalRecoveryStats* stats);

/// \brief Paths of the segment files in `dir`, oldest first; empty when
/// the directory is missing.
std::vector<std::string> ListWalSegmentPaths(const std::string& dir);

}  // namespace slade

#endif  // SLADE_DURABILITY_WAL_H_
