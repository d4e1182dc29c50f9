// Loopback lifecycle tests for the HTTP front end: start on an ephemeral
// port, drive it with real sockets, check protocol semantics and stats
// consistency, and exercise graceful shutdown. Rides the ASan/TSan legs.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "durability/journal.h"
#include "engine/streaming_engine.h"
#include "server/json.h"
#include "server/slade_server.h"

namespace slade {
namespace {

/// Blocking loopback client: one request, one response, returns the raw
/// response bytes ("" on connect failure).
std::string RoundTrip(uint16_t port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           0);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  shutdown(fd, SHUT_WR);  // half-close: the server still answers
  std::string response;
  char buf[8192];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string PostSubmit(uint16_t port, const std::string& body) {
  return RoundTrip(port,
                   "POST /v1/submit HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
}

int StatusCodeOf(const std::string& response) {
  if (response.size() < 12) return 0;
  return std::atoi(response.c_str() + 9);  // after "HTTP/1.1 "
}

/// Raw text of a top-level numeric JSON field, "" if absent. Good enough
/// for comparing two responses' values for equality.
std::string JsonNumberText(const std::string& response,
                           const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  const size_t end = response.find_first_of(",}", start);
  return response.substr(start, end - start);
}

StreamingOptions FastFlushOptions() {
  StreamingOptions options;
  options.max_delay_seconds = 0.005;  // flush quickly: tests stay snappy
  return options;
}

class ServerIntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    server_.reset();   // before the engine it serves
    engine_.reset();   // before the journal it journals to
    journal_.reset();
    if (!wal_dir_.empty()) std::filesystem::remove_all(wal_dir_);
  }

  void StartServer(StreamingOptions engine_options,
                   ServerOptions server_options = {}) {
    auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
    ASSERT_TRUE(profile.ok());
    engine_ = std::make_unique<StreamingEngine>(*profile, engine_options);
    server_options.port = 0;  // ephemeral: tests never collide
    server_ = std::make_unique<SladeServer>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  /// StartServer with the full durable wiring of `slade_cli serve
  /// --wal-dir`: a journal under a test-private directory, hooked into
  /// both the engine (admission/outcome journaling, duplicate replay)
  /// and the server (stats export, shutdown checkpoint).
  void StartDurableServer(StreamingOptions engine_options) {
    wal_dir_ =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("server_wal_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(wal_dir_);
    JournalOptions journal_options;
    journal_options.wal.dir = wal_dir_.string();
    auto opened = SubmissionJournal::Open(journal_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    journal_ = std::move(opened->journal);
    engine_options.durability = journal_.get();
    ServerOptions server_options;
    server_options.journal = journal_.get();
    StartServer(engine_options, server_options);
  }

  std::filesystem::path wal_dir_;
  std::unique_ptr<SubmissionJournal> journal_;  // outlives the engine
  std::unique_ptr<StreamingEngine> engine_;
  std::unique_ptr<SladeServer> server_;
};

TEST_F(ServerIntegrationTest, HealthzAnswersOk) {
  StartServer(FastFlushOptions());
  const std::string response =
      RoundTrip(server_->port(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(response), 200);
  EXPECT_NE(response.find("\"ok\""), std::string::npos) << response;
}

TEST_F(ServerIntegrationTest, SubmitReturnsAPlanSlice) {
  StartServer(FastFlushOptions());
  const std::string response = PostSubmit(
      server_->port(),
      R"({"requester": "alice", "tasks": [[0.9, 0.85], [0.92]]})");
  EXPECT_EQ(StatusCodeOf(response), 200) << response;
  EXPECT_NE(response.find("\"requester\":\"alice\""), std::string::npos);
  EXPECT_NE(response.find("\"num_atomic_tasks\":3"), std::string::npos);
  EXPECT_NE(response.find("\"cost\":"), std::string::npos);
}

TEST_F(ServerIntegrationTest, MalformedInputsGetCleanErrors) {
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  // Bad JSON -> 400.
  EXPECT_EQ(StatusCodeOf(PostSubmit(port, "{not json")), 400);
  // Schema violations -> 400.
  EXPECT_EQ(StatusCodeOf(PostSubmit(port, R"({"tasks": [[0.9]]})")), 400);
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                port, R"({"requester": "a", "tasks": []})")),
            400);
  // Thresholds out of (0,1) -> 400 from task validation.
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                port, R"({"requester": "a", "tasks": [[1.5]]})")),
            400);
  // Unknown route -> 404; wrong method -> 405.
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")),
            404);
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "GET /v1/submit HTTP/1.1\r\nHost: t\r\n\r\n")),
            405);
  // Malformed request line -> 400 and the connection closes.
  EXPECT_EQ(StatusCodeOf(RoundTrip(port, "garbage\r\n\r\n")), 400);
}

TEST_F(ServerIntegrationTest, OversizedBodyIs413) {
  ServerOptions server_options;
  server_options.parser_limits.max_body_bytes = 64;
  StartServer(FastFlushOptions(), server_options);
  const std::string big(200, 'x');
  EXPECT_EQ(StatusCodeOf(PostSubmit(server_->port(), big)), 413);
}

TEST_F(ServerIntegrationTest, BackpressureRejectionIs429WithRetryAfter) {
  // A queue capped below the submission size with kReject: everything
  // after the first pending submission is rejected. Park the engine
  // (huge deadline) so the queue deterministically stays full.
  StreamingOptions options;
  options.max_delay_seconds = 3600.0;
  options.max_pending_submissions = 1u << 20;
  options.max_pending_atomic_tasks = 1u << 20;
  options.resources.backpressure = BackpressurePolicy::kReject;
  options.resources.queue_max_atomic_tasks = 2;
  StartServer(options);
  const uint16_t port = server_->port();

  // First submission occupies the whole queue (empty-queue rule admits
  // it); it parks until drain. Submit it from a background thread since
  // its response only arrives after the drain below.
  std::thread first([&] {
    PostSubmit(port, R"({"requester": "a", "tasks": [[0.9], [0.9]]})");
  });
  // Wait until the engine shows the parked submission.
  while (engine_->stats().queue_submissions == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string rejected =
      PostSubmit(port, R"({"requester": "b", "tasks": [[0.9]]})");
  EXPECT_EQ(StatusCodeOf(rejected), 429) << rejected;
  EXPECT_NE(rejected.find("Retry-After:"), std::string::npos) << rejected;

  engine_->Flush();  // release the parked submission
  first.join();
  const StreamingStats stats = engine_->stats();
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(ServerIntegrationTest, ConcurrentSubmitsAllSucceedAndStatsAdd) {
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  // Distinct continuous thresholds per submission, as serving traffic
  // sends them: tasks {a} and {b, c}.
  const auto thresholds_of = [](int t, int i) {
    return std::vector<double>{0.80 + 0.0037 * t + 0.00091 * i,
                               0.86 + 0.0029 * t + 0.0013 * i,
                               0.91 + 0.0011 * t + 0.0007 * i};
  };
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::vector<double> th = thresholds_of(t, i);
        char tasks[96];
        std::snprintf(tasks, sizeof(tasks), "[[%.6f], [%.6f, %.6f]]", th[0],
                      th[1], th[2]);
        const std::string response =
            PostSubmit(port, "{\"requester\": \"r" + std::to_string(t) +
                                 "\", \"tasks\": " + tasks + "}");
        if (StatusCodeOf(response) == 200) ok_counts[t] += 1;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  int total_ok = 0;
  for (const int n : ok_counts) total_ok += n;
  EXPECT_EQ(total_ok, kThreads * kPerThread);

  // Stats consistency: every wire submission was admitted and delivered
  // (unbounded queue, no rejections) and the server counted each request.
  const StreamingStats engine_stats = engine_->stats();
  EXPECT_EQ(engine_stats.submissions,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(engine_stats.rejected, 0u);
  EXPECT_EQ(engine_stats.shed, 0u);
  const ServerStats server_stats = server_->stats();
  EXPECT_EQ(server_stats.responses_2xx,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(server_stats.rejected_429, 0u);
  // The stats endpoint agrees with itself after the dust settles.
  const std::string stats_response = RoundTrip(
      port, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(stats_response), 200);
  EXPECT_NE(stats_response.find("\"submissions\":40"), std::string::npos)
      << stats_response;

  // The OPQ cache counts one lookup per solved shard. Isolated sharing
  // cuts each task by its own Algorithm 4 partition, so the shards are
  // those of one isolated batch over every submitted task, however the
  // flushes grouped them; continuous thresholds share key intervals, so
  // no more entries stay resident than were built.
  std::vector<CrowdsourcingTask> tasks;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      // Round as the wire did.
      std::vector<double> th = thresholds_of(t, i);
      for (double& x : th) x = std::stod(std::to_string(x));
      tasks.push_back(CrowdsourcingTask::FromThresholds({th[0]}).ValueOrDie());
      tasks.push_back(
          CrowdsourcingTask::FromThresholds({th[1], th[2]}).ValueOrDie());
    }
  }
  EngineOptions isolated;
  isolated.sharing = BatchSharing::kIsolated;
  DecompositionEngine reference(isolated);
  auto report = reference.SolveBatch(
      tasks, BuildProfile(MakeModel(DatasetKind::kJelly), 6).ValueOrDie());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const size_t body_start = stats_response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos);
  auto stats = JsonValue::Parse(stats_response.substr(body_start + 4));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* cache = stats->Find("opq_cache");
  ASSERT_NE(cache, nullptr) << stats_response;
  const auto count = [&](const std::string& key) {
    const JsonValue* value = cache->Find(key);
    EXPECT_NE(value, nullptr) << key;
    return value == nullptr ? -1.0 : value->number;
  };
  EXPECT_EQ(count("hits") + count("misses"),
            static_cast<double>(report->shards.size()));
  EXPECT_GT(count("entries"), 0.0);
  EXPECT_LE(count("entries"), count("builds"));
  EXPECT_GT(count("bytes"), 0.0);
  EXPECT_GE(count("build_seconds"), 0.0);
}

TEST_F(ServerIntegrationTest, KeepAliveServesSequentialRequests) {
  StartServer(FastFlushOptions());
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    // Each response is short; one read usually suffices, but loop until
    // the body ("ok") shows up.
    while (response.find("\"ok\"") == std::string::npos) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "iteration " << i;
      response.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(StatusCodeOf(response), 200);
  }
  close(fd);
}

TEST_F(ServerIntegrationTest, HeadHealthzSendsHeadersButNoBody) {
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  // Measure what GET would return so we can pin HEAD's Content-Length.
  const std::string get_response =
      RoundTrip(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const size_t get_header_end = get_response.find("\r\n\r\n");
  ASSERT_NE(get_header_end, std::string::npos);
  const size_t get_body_size = get_response.size() - (get_header_end + 4);
  ASSERT_GT(get_body_size, 0u);

  const std::string head_response =
      RoundTrip(port, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(head_response), 200);
  // Content-Length advertises the body a GET would produce...
  EXPECT_NE(head_response.find(
                "Content-Length: " + std::to_string(get_body_size)),
            std::string::npos)
      << head_response;
  // ...but the response ends at the blank line: no body bytes follow.
  const size_t header_end = head_response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_EQ(head_response.size(), header_end + 4) << head_response;

  // HEAD on a non-HEAD route gets a body-less 405, same rule.
  const std::string head_stats =
      RoundTrip(port, "HEAD /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(head_stats), 405);
  const size_t stats_header_end = head_stats.find("\r\n\r\n");
  ASSERT_NE(stats_header_end, std::string::npos);
  EXPECT_EQ(head_stats.size(), stats_header_end + 4) << head_stats;
}

TEST_F(ServerIntegrationTest, PipelinedGarbageThenCloseIsHandledCleanly) {
  // Regression: a valid request with garbage pipelined behind it, then a
  // peer close. The garbage poisons the parser while a worker owns the
  // first request; when the response flushes, the event loop's flush
  // pass must tear the connection down without invalidating its own
  // iteration over the connection map (previously UB under ASan).
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  for (int i = 0; i < 8; ++i) {
    const std::string response = RoundTrip(
        port,
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\ngarbage bytes\r\n\r\n");
    // The first request is answered; the poisoned tail yields either a
    // trailing 400 or a plain close depending on timing. Both are fine;
    // a torn first response is not.
    EXPECT_EQ(StatusCodeOf(response), 200) << response;
    EXPECT_NE(response.find("\"ok\""), std::string::npos) << response;
  }
  // The server is still healthy afterwards.
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")),
            200);
}

TEST_F(ServerIntegrationTest, GracefulShutdownAnswersInFlightRequests) {
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  // Launch submits, then shut down while they are likely in flight; every
  // request must still get a complete HTTP response (the server drains
  // instead of slamming connections).
  std::vector<std::thread> threads;
  std::vector<std::string> responses(6);
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      responses[i] = PostSubmit(
          port, R"({"requester": "shutdown", "tasks": [[0.9]]})");
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server_->Shutdown();
  for (std::thread& thread : threads) thread.join();
  for (const std::string& response : responses) {
    // Connections accepted before the listener closed were answered;
    // later connects were refused outright ("" response). No torn
    // responses either way.
    if (!response.empty()) {
      EXPECT_EQ(StatusCodeOf(response), 200) << response;
    }
  }
  // After shutdown the port no longer accepts.
  EXPECT_EQ(RoundTrip(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"), "");
}

TEST_F(ServerIntegrationTest, ShutdownIsIdempotent) {
  StartServer(FastFlushOptions());
  server_->Shutdown();
  server_->Shutdown();  // second call: no-op, no crash
  // Concurrent double-shutdown is also safe.
  StartServer(FastFlushOptions());
  std::thread a([&] { server_->Shutdown(); });
  std::thread b([&] { server_->Shutdown(); });
  a.join();
  b.join();
}

TEST_F(ServerIntegrationTest, SubmissionIdRoundTripsAndDuplicateReplays) {
  StartDurableServer(FastFlushOptions());
  const uint16_t port = server_->port();
  const std::string body =
      R"({"requester": "alice", "submission_id": "it-1",)"
      R"( "tasks": [[0.9, 0.85]]})";

  const std::string first = PostSubmit(port, body);
  EXPECT_EQ(StatusCodeOf(first), 200) << first;
  EXPECT_NE(first.find("\"submission_id\":\"it-1\""), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"duplicate\":false"), std::string::npos) << first;
  const std::string first_cost = JsonNumberText(first, "cost");
  ASSERT_FALSE(first_cost.empty());

  // Resubmitting the same id replays the journaled outcome: same cost,
  // flagged duplicate, no second solve billed.
  const std::string second = PostSubmit(port, body);
  EXPECT_EQ(StatusCodeOf(second), 200) << second;
  EXPECT_NE(second.find("\"duplicate\":true"), std::string::npos) << second;
  EXPECT_EQ(JsonNumberText(second, "cost"), first_cost) << second;
  EXPECT_EQ(engine_->stats().submissions, 1u);
  EXPECT_EQ(engine_->stats().duplicate_hits, 1u);

  // Malformed ids are schema violations, not admissions.
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                port,
                R"({"requester": "a", "submission_id": "",)"
                R"( "tasks": [[0.9]]})")),
            400);
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                port,
                R"({"requester": "a", "submission_id": 7,)"
                R"( "tasks": [[0.9]]})")),
            400);
}

TEST_F(ServerIntegrationTest, InFlightDuplicateIs409ThenReplaysAfterAck) {
  // Park the engine so the first submission stays in flight: a duplicate
  // arriving meanwhile cannot be answered from the journal yet and must
  // be refused as a conflict rather than double-admitted.
  StreamingOptions options;
  options.max_delay_seconds = 3600.0;
  options.max_pending_submissions = 1u << 20;
  options.max_pending_atomic_tasks = 1u << 20;
  StartDurableServer(options);
  const uint16_t port = server_->port();
  const std::string body =
      R"({"requester": "alice", "submission_id": "dup-1",)"
      R"( "tasks": [[0.9]]})";

  std::string first;
  std::thread holder([&] { first = PostSubmit(port, body); });
  while (engine_->stats().queue_submissions == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string conflicted = PostSubmit(port, body);
  EXPECT_EQ(StatusCodeOf(conflicted), 409) << conflicted;

  engine_->Flush();  // release the parked original
  holder.join();
  EXPECT_EQ(StatusCodeOf(first), 200) << first;
  // Once the original is acked, the same id replays as a duplicate.
  const std::string replay = PostSubmit(port, body);
  EXPECT_EQ(StatusCodeOf(replay), 200) << replay;
  EXPECT_NE(replay.find("\"duplicate\":true"), std::string::npos) << replay;
  EXPECT_EQ(engine_->stats().submissions, 1u);
}

TEST_F(ServerIntegrationTest, StatsExposeDurabilityOnlyWhenJournaled) {
  StartDurableServer(FastFlushOptions());
  const uint16_t port = server_->port();
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                port,
                R"({"requester": "alice", "submission_id": "s-1",)"
                R"( "tasks": [[0.9]]})")),
            200);
  const std::string stats =
      RoundTrip(port, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(stats), 200);
  for (const char* key :
       {"\"durability\":", "\"records_appended\":", "\"fsyncs\":",
        "\"recovery\":", "\"duplicate_hits\":", "\"clean_shutdown\":"}) {
    EXPECT_NE(stats.find(key), std::string::npos) << key << "\n" << stats;
  }

  // A journal-less server omits the section entirely.
  TearDown();
  StartServer(FastFlushOptions());
  const std::string plain = RoundTrip(
      server_->port(), "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(plain), 200);
  EXPECT_EQ(plain.find("\"durability\":"), std::string::npos) << plain;
}

TEST_F(ServerIntegrationTest, ShutdownCheckpointMakesTheNextStartClean) {
  StartDurableServer(FastFlushOptions());
  EXPECT_EQ(StatusCodeOf(PostSubmit(
                server_->port(),
                R"({"requester": "alice", "submission_id": "ck-1",)"
                R"( "tasks": [[0.9]]})")),
            200);
  server_->Shutdown();  // drains the engine, checkpoints, compacts
  server_.reset();
  engine_.reset();
  journal_.reset();

  JournalOptions journal_options;
  journal_options.wal.dir = wal_dir_.string();
  auto reopened = SubmissionJournal::Open(journal_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->journal->stats().recovery.clean_shutdown);
  EXPECT_TRUE(reopened->pending.empty());
  SubmissionOutcome outcome;
  EXPECT_TRUE(reopened->journal->LookupCompleted("ck-1", &outcome));
}

TEST_F(ServerIntegrationTest, DestructorImpliesShutdown) {
  StartServer(FastFlushOptions());
  const uint16_t port = server_->port();
  EXPECT_EQ(StatusCodeOf(RoundTrip(
                port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")),
            200);
  server_.reset();  // ~SladeServer shuts down
  engine_.reset();  // engine outlives the server, then drains
  EXPECT_EQ(RoundTrip(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"), "");
}

}  // namespace
}  // namespace slade
