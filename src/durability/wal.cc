#include "durability/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/crc32c.h"

namespace slade {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 masked crc
// A record larger than this is not something the journal ever writes; a
// length beyond it means we are reading garbage, not a big record.
constexpr uint32_t kMaxRecordLen = 1u << 30;

void EncodeFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t DecodeFixed32(const char* src) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(src);
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

/// Parses "wal-<seq>.log"; returns false for anything else.
bool ParseSegmentFileName(const std::string& name, uint64_t* seq) {
  constexpr char kPrefix[] = "wal-";
  constexpr char kSuffix[] = ".log";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

Result<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError(ErrnoMessage("opendir " + dir));
  }
  std::vector<uint64_t> seqs;
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(ent->d_name, &seq)) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

/// Makes a directory-entry change (create/unlink of a segment) durable.
Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir " + dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError(ErrnoMessage("fsync dir " + dir));
  return Status::OK();
}

/// Cuts a torn segment back to `size` bytes and fsyncs the file. The new
/// size must be durable before any later segment is unlinked: should it be
/// lost in a host crash, the torn tail would reappear in front of the
/// segments a post-recovery writer creates, and the next replay would stop
/// there and drop all of them.
Status TruncateDurably(const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
  Status st;
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    st = Status::IOError(ErrnoMessage("ftruncate " + path));
  } else if (::fsync(fd) != 0) {
    st = Status::IOError(ErrnoMessage("fsync " + path));
  }
  ::close(fd);
  return st;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write " + path));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
  std::string contents;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError(ErrnoMessage("read " + path));
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

void AppendFrame(std::string* out, WalRecordType type,
                 std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
  char header[kFrameHeaderBytes];
  EncodeFixed32(header, len);
  const char type_byte = static_cast<char>(type);
  uint32_t crc = Crc32c(&type_byte, 1);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  EncodeFixed32(header + 4, Crc32cMask(crc));
  out->append(header, kFrameHeaderBytes);
  out->push_back(type_byte);
  out->append(payload.data(), payload.size());
}

/// Weighted percentile over a size -> count histogram.
double HistogramPercentile(const std::map<uint64_t, uint64_t>& counts,
                           double q) {
  uint64_t total = 0;
  for (const auto& [size, count] : counts) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (const auto& [size, count] : counts) {
    seen += count;
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(size);
    }
  }
  return static_cast<double>(counts.rbegin()->first);
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WalOptions::dir must not be empty");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(ErrnoMessage("mkdir " + options.dir));
  }
  SLADE_ASSIGN_OR_RETURN(std::vector<uint64_t> existing,
                         ListSegments(options.dir));
  std::unique_ptr<WalWriter> writer(new WalWriter(std::move(options)));
  {
    std::unique_lock<std::mutex> lock(writer->mutex_);
    writer->active_segment_ = existing.empty() ? 1 : existing.back() + 1;
    SLADE_RETURN_NOT_OK(writer->OpenNewSegmentLocked());
  }
  return writer;
}

WalWriter::~WalWriter() {
  Sync().ok();  // best effort: flush whatever AppendBuffered left behind
  std::unique_lock<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenNewSegmentLocked() {
  const std::string path =
      JoinPath(options_.dir, SegmentFileName(active_segment_));
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
  if (options_.fsync) {
    const Status st = FsyncDir(options_.dir);
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
  }
  fd_ = fd;
  segment_offset_ = 0;
  ++stats_.segments_created;
  stats_.active_segment = active_segment_;
  return Status::OK();
}

Result<WalAppendResult> WalWriter::AppendLocked(WalRecordType type,
                                                std::string_view payload) {
  if (!io_error_.ok()) return io_error_;
  if (payload.size() >= kMaxRecordLen) {
    return Status::InvalidArgument("WAL record payload too large");
  }
  const size_t before = buffer_.size();
  AppendFrame(&buffer_, type, payload);
  WalAppendResult result;
  result.seq = ++appended_seq_;
  result.segment = active_segment_;
  result.end_offset = segment_offset_ + buffer_.size();
  ++stats_.records_appended;
  stats_.bytes_appended += buffer_.size() - before;
  return result;
}

Result<WalAppendResult> WalWriter::Append(WalRecordType type,
                                          std::string_view payload) {
  std::unique_lock<std::mutex> lock(mutex_);
  SLADE_ASSIGN_OR_RETURN(WalAppendResult result, AppendLocked(type, payload));
  SLADE_RETURN_NOT_OK(CommitUpToLocked(result.seq, lock));
  return result;
}

Result<WalAppendResult> WalWriter::AppendBuffered(WalRecordType type,
                                                  std::string_view payload) {
  std::unique_lock<std::mutex> lock(mutex_);
  return AppendLocked(type, payload);
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  return CommitUpToLocked(appended_seq_, lock);
}

Status WalWriter::CommitUpToLocked(uint64_t seq,
                                   std::unique_lock<std::mutex>& lock) {
  while (true) {
    if (!io_error_.ok()) return io_error_;
    if (durable_seq_ >= seq) return Status::OK();
    if (committer_active_) {
      // Another thread is writing a batch that may or may not cover us;
      // wait for it to finish and re-check.
      commit_cv_.wait(lock);
      continue;
    }
    // Lead a commit of everything buffered so far, without waiting for
    // companions: records appended while this write+fsync is in flight
    // pile up in buffer_ and form the next leader's batch.
    committer_active_ = true;
    std::string batch;
    batch.swap(buffer_);
    const uint64_t target = appended_seq_;
    const uint64_t batch_records = target - durable_seq_;
    const int fd = fd_;
    const std::string path =
        JoinPath(options_.dir, SegmentFileName(active_segment_));
    lock.unlock();
    Status st = WriteAll(fd, batch.data(), batch.size(), path);
    if (st.ok() && options_.fsync && ::fsync(fd) != 0) {
      st = Status::IOError(ErrnoMessage("fsync " + path));
    }
    lock.lock();
    if (!st.ok()) {
      // Sticky failure: a half-written batch means the durable prefix is
      // no longer well defined, so the writer refuses all further work.
      io_error_ = st;
      committer_active_ = false;
      commit_cv_.notify_all();
      return st;
    }
    segment_offset_ += batch.size();
    durable_seq_ = target;
    stats_.durable_records = durable_seq_;
    ++stats_.commit_batches;
    if (options_.fsync) ++stats_.fsyncs;
    ++batch_size_counts_[batch_records];
    stats_.commit_batch_max = std::max(stats_.commit_batch_max, batch_records);
    if (segment_offset_ >= options_.segment_max_bytes) {
      // Seal and rotate. The batch just fsynced, so the sealed segment is
      // fully durable before the next one's directory entry appears.
      sealed_last_seq_[active_segment_] = durable_seq_;
      ::close(fd_);
      fd_ = -1;
      ++active_segment_;
      const Status rotate = OpenNewSegmentLocked();
      if (!rotate.ok()) io_error_ = rotate;
    }
    committer_active_ = false;
    commit_cv_.notify_all();
  }
}

Status WalWriter::ReleaseSealedThrough(uint64_t min_live_seq) {
  std::unique_lock<std::mutex> lock(mutex_);
  Status first_error;
  bool deleted_any = false;
  while (!sealed_last_seq_.empty() &&
         sealed_last_seq_.begin()->second < min_live_seq) {
    const uint64_t segment = sealed_last_seq_.begin()->first;
    const std::string path = JoinPath(options_.dir, SegmentFileName(segment));
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      if (first_error.ok()) {
        first_error = Status::IOError(ErrnoMessage("unlink " + path));
      }
      break;
    }
    sealed_last_seq_.erase(sealed_last_seq_.begin());
    ++stats_.segments_deleted;
    deleted_any = true;
  }
  if (deleted_any && options_.fsync) {
    const Status st = FsyncDir(options_.dir);
    if (first_error.ok() && !st.ok()) first_error = st;
  }
  return first_error;
}

uint64_t WalWriter::ReleasableSegments(uint64_t min_live_seq) const {
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& [segment, last_seq] : sealed_last_seq_) {
    if (last_seq >= min_live_seq) break;
    ++n;
  }
  return n;
}

uint64_t WalWriter::last_seq() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return appended_seq_;
}

WalStats WalWriter::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  WalStats out = stats_;
  out.commit_batch_p50 = HistogramPercentile(batch_size_counts_, 0.50);
  out.commit_batch_p95 = HistogramPercentile(batch_size_counts_, 0.95);
  return out;
}

std::vector<std::string> WalWriter::SegmentPaths() const {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(sealed_last_seq_.size() + 1);
  for (const auto& [segment, last_seq] : sealed_last_seq_) {
    paths.push_back(JoinPath(options_.dir, SegmentFileName(segment)));
  }
  paths.push_back(JoinPath(options_.dir, SegmentFileName(active_segment_)));
  return paths;
}

std::vector<std::string> ListWalSegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  Result<std::vector<uint64_t>> segments = ListSegments(dir);
  if (!segments.ok()) return paths;
  paths.reserve(segments->size());
  for (const uint64_t seq : *segments) {
    paths.push_back(JoinPath(dir, SegmentFileName(seq)));
  }
  return paths;
}

Result<std::vector<WalRecoveredRecord>> ReplayWal(const std::string& dir,
                                                  bool repair,
                                                  WalRecoveryStats* stats) {
  WalRecoveryStats local;
  WalRecoveryStats& out = stats != nullptr ? *stats : local;
  out = WalRecoveryStats();

  std::vector<WalRecoveredRecord> records;
  struct stat dir_stat;
  if (::stat(dir.c_str(), &dir_stat) != 0) {
    if (errno == ENOENT) return records;  // nothing to replay
    return Status::IOError(ErrnoMessage("stat " + dir));
  }
  SLADE_ASSIGN_OR_RETURN(std::vector<uint64_t> segments, ListSegments(dir));

  size_t stop_segment_index = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    const uint64_t segment = segments[i];
    const std::string path = JoinPath(dir, SegmentFileName(segment));
    SLADE_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
    ++out.segments_scanned;
    out.bytes_scanned += data.size();

    size_t pos = 0;
    std::string reason;
    while (pos < data.size()) {
      if (data.size() - pos < kFrameHeaderBytes + 1) {
        reason = "truncated length prefix";
        break;
      }
      const uint32_t len = DecodeFixed32(data.data() + pos);
      if (len == 0) {
        reason = "zero-length record";
        break;
      }
      if (len > kMaxRecordLen) {
        reason = "implausible record length";
        break;
      }
      if (data.size() - pos - kFrameHeaderBytes < len) {
        reason = "truncated record body";
        break;
      }
      const uint32_t stored_crc =
          Crc32cUnmask(DecodeFixed32(data.data() + pos + 4));
      const char* body = data.data() + pos + kFrameHeaderBytes;
      if (Crc32c(body, len) != stored_crc) {
        reason = "crc mismatch";
        break;
      }
      WalRecoveredRecord rec;
      rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(body[0]));
      rec.payload.assign(body + 1, len - 1);
      rec.segment = segment;
      rec.seq = records.size() + 1;
      records.push_back(std::move(rec));
      ++out.records_replayed;
      pos += kFrameHeaderBytes + len;
    }
    if (pos < data.size()) {
      // Torn or corrupt tail: everything at and after the bad frame —
      // including later segments — is unreachable by the commit protocol,
      // so it is dropped rather than skipped over.
      out.truncated = true;
      out.truncate_reason = reason;
      out.truncated_bytes += data.size() - pos;
      if (repair) SLADE_RETURN_NOT_OK(TruncateDurably(path, pos));
      stop_segment_index = i;
      break;
    }
  }

  if (stop_segment_index < segments.size()) {
    for (size_t i = stop_segment_index + 1; i < segments.size(); ++i) {
      const std::string path = JoinPath(dir, SegmentFileName(segments[i]));
      struct stat seg_stat;
      if (::stat(path.c_str(), &seg_stat) == 0) {
        out.truncated_bytes += static_cast<uint64_t>(seg_stat.st_size);
      }
      if (repair && ::unlink(path.c_str()) != 0 && errno != ENOENT) {
        return Status::IOError(ErrnoMessage("unlink " + path));
      }
    }
    if (repair) SLADE_RETURN_NOT_OK(FsyncDir(dir));
  }
  return records;
}

}  // namespace slade
