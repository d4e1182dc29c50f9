// WAL hot-path benchmark: append/commit throughput of the submission log
// under its three durability disciplines, the commit latency of a lone
// appender, plus recovery replay speed.
//
//   * sync     -- one fsync per record (single appender, back to back):
//                 the worst-case latency floor.
//   * group    -- 8 concurrent appenders sharing group commits: the serve
//                 path under load. The figure of merit is records per
//                 fsync (batching efficiency), not just throughput.
//   * buffered -- AppendBuffered + one Sync barrier per batch: the
//                 micro-batch outcome path (one barrier per flush).
//   * lone     -- one appender paced at 1,500 records/s with fsync off,
//                 alternating Append (a journal admit) and AppendBuffered
//                 + Sync (a one-submission outcome barrier). It times the
//                 commit protocol itself, not the disk: any wait a leader
//                 adds for companions that never come shows up here.
//   * replay   -- sequential scan + CRC check of the log written by the
//                 buffered pass: recovery-time cost per record.
//
// Emits BENCH_wal.json for tools/bench_trend.py. `--smoke` (or
// SLADE_BENCH_FAST=1) shrinks the record counts for CI; fsync-bound
// numbers depend heavily on the backing filesystem, which is why the
// trend gate keys on regressions, not absolutes.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "durability/wal.h"

namespace {

using namespace slade;

constexpr size_t kPayloadBytes = 128;

constexpr double kLoneRecordsPerSecond = 1500.0;

WalOptions Options(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  return options;
}

std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("slade_bench_wal_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct PassResult {
  double seconds = 0.0;
  uint64_t records = 0;
  uint64_t fsyncs = 0;
};

void Report(slade_bench::BenchJsonWriter& json, TablePrinter& table,
            const char* mode, const PassResult& pass) {
  const double per_second =
      static_cast<double>(pass.records) / pass.seconds;
  const double records_per_fsync =
      pass.fsyncs == 0 ? 0.0
                       : static_cast<double>(pass.records) /
                             static_cast<double>(pass.fsyncs);
  table.AddRow({mode, std::to_string(pass.records),
                TablePrinter::FormatDouble(pass.seconds * 1e3, 2),
                TablePrinter::FormatDouble(per_second / 1e3, 2),
                std::to_string(pass.fsyncs),
                TablePrinter::FormatDouble(records_per_fsync, 1)});
  json.BeginRecord();
  json.Field("mode", mode);
  json.Field("config", std::string(mode) + "/payload=" +
                           std::to_string(kPayloadBytes));
  json.Field("records", static_cast<double>(pass.records));
  json.Field("payload_bytes", static_cast<double>(kPayloadBytes));
  json.Field("seconds", pass.seconds);
  json.Field("records_per_second", per_second);
  json.Field("fsyncs", static_cast<double>(pass.fsyncs));
  json.Field("records_per_fsync", records_per_fsync);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = slade_bench::FastMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const uint64_t sync_records = smoke ? 256 : 2048;
  const uint64_t group_threads = 8;
  const uint64_t group_per_thread = smoke ? 128 : 1024;
  const uint64_t buffered_records = smoke ? 8192 : 65536;
  const uint64_t buffered_batch = 64;  // outcomes per Sync barrier
  const uint64_t lone_records = smoke ? 300 : 3000;

  std::cout << "WAL submission-log throughput ("
            << kPayloadBytes << "-byte payloads"
            << (smoke ? ", smoke sizes" : "") << ").\n";

  const std::string payload(kPayloadBytes, 'x');
  slade_bench::BenchJsonWriter json("wal");
  TablePrinter table({"mode", "records", "wall (ms)", "krec/s", "fsyncs",
                      "rec/fsync"});
  TablePrinter latency_table({"lone commit", "calls", "p50 (us)", "p99 (us)"});

  // --- sync: every append is its own durability barrier --------------------
  {
    const std::string dir = FreshDir("sync");
    auto writer = WalWriter::Open(Options(dir));
    if (!writer.ok()) {
      std::cerr << "open failed: " << writer.status().ToString() << "\n";
      return 1;
    }
    Stopwatch watch;
    for (uint64_t i = 0; i < sync_records; ++i) {
      if (!(*writer)->Append(WalRecordType::kAdmit, payload).ok()) return 1;
    }
    PassResult pass;
    pass.seconds = watch.ElapsedSeconds();
    pass.records = sync_records;
    pass.fsyncs = (*writer)->stats().fsyncs;
    Report(json, table, "sync", pass);
    writer->reset();
    std::filesystem::remove_all(dir);
  }

  // --- group: 8 appenders share commits via the group-commit leader --------
  {
    const std::string dir = FreshDir("group");
    auto writer = WalWriter::Open(Options(dir));
    if (!writer.ok()) return 1;
    Stopwatch watch;
    std::vector<std::thread> threads;
    threads.reserve(group_threads);
    for (uint64_t t = 0; t < group_threads; ++t) {
      threads.emplace_back([&] {
        for (uint64_t i = 0; i < group_per_thread; ++i) {
          if (!(*writer)->Append(WalRecordType::kAdmit, payload).ok()) {
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    PassResult pass;
    pass.seconds = watch.ElapsedSeconds();
    pass.records = group_threads * group_per_thread;
    pass.fsyncs = (*writer)->stats().fsyncs;
    Report(json, table, "group", pass);
    writer->reset();
    std::filesystem::remove_all(dir);
  }

  // --- buffered: micro-batch discipline, one barrier per batch -------------
  const std::string replay_dir = FreshDir("buffered");
  {
    auto writer = WalWriter::Open(Options(replay_dir));
    if (!writer.ok()) return 1;
    Stopwatch watch;
    for (uint64_t i = 0; i < buffered_records; ++i) {
      if (!(*writer)->AppendBuffered(WalRecordType::kComplete, payload)
               .ok()) {
        return 1;
      }
      if ((i + 1) % buffered_batch == 0 && !(*writer)->Sync().ok()) return 1;
    }
    if (!(*writer)->Sync().ok()) return 1;
    PassResult pass;
    pass.seconds = watch.ElapsedSeconds();
    pass.records = buffered_records;
    pass.fsyncs = (*writer)->stats().fsyncs;
    Report(json, table, "buffered", pass);
  }

  // --- lone: paced single appender, admits and outcome barriers -----------
  {
    const std::string dir = FreshDir("lone");
    WalOptions options = Options(dir);
    options.fsync = false;  // time the commit protocol, not the disk
    auto writer = WalWriter::Open(options);
    if (!writer.ok()) return 1;
    const auto period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / kLoneRecordsPerSecond));
    std::vector<double> admit_us;
    std::vector<double> barrier_us;
    Stopwatch watch;
    auto next = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < lone_records; ++i) {
      std::this_thread::sleep_until(next);
      next += period;
      Stopwatch op;
      if (i % 2 == 0) {
        if (!(*writer)->Append(WalRecordType::kAdmit, payload).ok()) return 1;
        admit_us.push_back(op.ElapsedSeconds() * 1e6);
      } else {
        if (!(*writer)->AppendBuffered(WalRecordType::kComplete, payload)
                 .ok() ||
            !(*writer)->Sync().ok()) {
          return 1;
        }
        barrier_us.push_back(op.ElapsedSeconds() * 1e6);
      }
    }
    PassResult pass;
    pass.seconds = watch.ElapsedSeconds();
    pass.records = lone_records;
    pass.fsyncs = (*writer)->stats().fsyncs;
    Report(json, table, "lone", pass);
    json.Field("admit_latency_us_p50", Percentile(admit_us, 50));
    json.Field("barrier_latency_us_p50", Percentile(barrier_us, 50));
    latency_table.AddRow(
        {"Append (admit)", std::to_string(admit_us.size()),
         TablePrinter::FormatDouble(Percentile(admit_us, 50), 1),
         TablePrinter::FormatDouble(Percentile(admit_us, 99), 1)});
    latency_table.AddRow(
        {"AppendBuffered+Sync (barrier)", std::to_string(barrier_us.size()),
         TablePrinter::FormatDouble(Percentile(barrier_us, 50), 1),
         TablePrinter::FormatDouble(Percentile(barrier_us, 99), 1)});
    writer->reset();
    std::filesystem::remove_all(dir);
  }

  // --- replay: recovery-time scan of the buffered log ----------------------
  {
    Stopwatch watch;
    WalRecoveryStats stats;
    auto replayed = ReplayWal(replay_dir, /*repair=*/false, &stats);
    if (!replayed.ok()) {
      std::cerr << "replay failed: " << replayed.status().ToString() << "\n";
      return 1;
    }
    PassResult pass;
    pass.seconds = watch.ElapsedSeconds();
    pass.records = stats.records_replayed;
    pass.fsyncs = 0;
    if (pass.records != buffered_records) {
      std::cerr << "replay lost records: " << pass.records << " of "
                << buffered_records << "\n";
      return 1;
    }
    Report(json, table, "replay", pass);
  }
  std::filesystem::remove_all(replay_dir);

  PrintBanner(std::cout,
              "WAL: append/commit throughput per durability discipline "
              "(rec/fsync = group-commit batching efficiency)");
  table.Print(std::cout);
  PrintBanner(std::cout,
              "WAL: lone-appender commit latency at 1,500 records/s "
              "(fsync off: the commit protocol alone)");
  latency_table.Print(std::cout);
  json.Write();
  return 0;
}
