#include "server/slade_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "server/json.h"

namespace slade {

namespace {

const char* ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

std::string ErrorBody(const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.Value(message);
  w.EndObject();
  return std::move(w).Take();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SladeServer::SladeServer(StreamingEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

SladeServer::~SladeServer() { Shutdown(); }

Status SladeServer::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("SladeServer::Start called twice");
  }
  // A peer that disconnects mid-response must not kill the process.
  signal(SIGPIPE, SIG_IGN);

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + options_.address +
                                   "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        "bind " + options_.address + ":" + std::to_string(options_.port) +
        ": " + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, 128) != 0) {
    const Status status =
        Status::IOError("listen: " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  if (pipe(wake_pipe_) != 0 || !SetNonBlocking(wake_pipe_[0]) ||
      !SetNonBlocking(wake_pipe_[1]) || !SetNonBlocking(listen_fd_)) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("pipe/nonblock setup failed");
  }

  const size_t num_workers =
      options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&SladeServer::WorkerLoop, this);
  }
  loop_thread_ = std::thread(&SladeServer::EventLoop, this);
  return Status::OK();
}

void SladeServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (!started_.load() || stopping_.exchange(true)) {
    // Never started, or a previous Shutdown already ran: idempotent no-op
    // (the first caller joined everything below).
    return;
  }
  NotifyLoop();
  {
    // Notify under work_mutex_: a worker that just evaluated the wait
    // predicate (saw stopping_ == false) still holds the mutex until it
    // blocks, so this cannot slip between its check and its sleep.
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_cv_.notify_all();
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (options_.journal != nullptr) {
    // Every worker has returned, so no submission futures are pending on
    // HTTP requests; drain whatever else was fed in (e.g. a replay feed),
    // then seal the journal so a restart on this WAL skips recovery.
    engine_->Drain();
    options_.journal->WriteCheckpoint();
    options_.journal->Compact();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
}

ServerStats SladeServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SladeServer::NotifyLoop() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
}

void SladeServer::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn_ids;
  for (;;) {
    const bool stopping = stopping_.load();
    // On shutdown: stop accepting, but keep serving until every busy
    // connection has its response written out.
    bool any_busy_or_unwritten = false;
    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn_ids.push_back(0);
    if (!stopping) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    for (auto& [conn_id, conn] : connections_) {
      short events = 0;
      if (!conn.outbox.empty()) {
        events |= POLLOUT;
      } else if (!conn.busy) {
        // Read only when idle and nothing queued to write: one request in
        // flight per connection, and TCP backpressure otherwise.
        events |= POLLIN;
      }
      if (conn.busy || !conn.outbox.empty()) any_busy_or_unwritten = true;
      fds.push_back({conn.fd, events, 0});
      fd_conn_ids.push_back(conn_id);
    }
    if (stopping && !any_busy_or_unwritten) break;

    const int ready = poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    // Attach finished responses before touching sockets, so the write
    // pass below can flush them in the same iteration.
    {
      std::lock_guard<std::mutex> lock(finished_mutex_);
      for (Finished& done : finished_) {
        const auto it = connections_.find(done.conn_id);
        if (it == connections_.end()) continue;  // peer already gone
        it->second.busy = false;
        it->second.outbox += done.response;
        it->second.close_after_write |= done.close_after_write;
      }
      finished_.clear();
    }

    for (size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].fd == listen_fd_ && fd_conn_ids[i] == 0) {
        if (fds[i].revents & POLLIN) AcceptPending();
        continue;
      }
      const uint64_t conn_id = fd_conn_ids[i];
      const auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (conn->busy) {
          // The worker still owns a request for this connection; keep the
          // shell so its response has somewhere to land, drop it then.
          conn->close_after_write = true;
          continue;
        }
        CloseConnection(conn_id);
        continue;
      }
      if ((fds[i].revents & POLLIN) && !ReadAndDispatch(conn_id, conn)) {
        CloseConnection(conn_id);
        continue;
      }
    }

    // Flush every outbox with pending bytes (not only POLLOUT-flagged
    // ones: responses attached above may not have been polled for yet).
    std::vector<uint64_t> to_close;
    for (auto& [conn_id, conn] : connections_) {
      if (conn.outbox.empty()) continue;
      if (!WriteOut(&conn)) {
        to_close.push_back(conn_id);
        continue;
      }
      if (conn.outbox.empty() && conn.close_after_write) {
        to_close.push_back(conn_id);
      } else if (conn.outbox.empty() && !conn.busy &&
                 conn.parser.state() != HttpParseState::kNeedMore) {
        // A pipelined request (or a parse error on pipelined bytes)
        // resolved while the previous response was in flight; handle it
        // now -- no more bytes may ever arrive to trigger POLLIN. A dead
        // connection is deferred to to_close: erasing here would
        // invalidate this range-for's iterator.
        if (!ReadAndDispatch(conn_id, &conn)) to_close.push_back(conn_id);
      }
    }
    for (const uint64_t conn_id : to_close) CloseConnection(conn_id);
  }

  // Loop exit: fail any connections still open (none busy by now).
  std::vector<uint64_t> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [conn_id, conn] : connections_) {
    remaining.push_back(conn_id);
  }
  for (const uint64_t conn_id : remaining) CloseConnection(conn_id);
}

void SladeServer::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error: try next poll
    if (connections_.size() >= options_.max_connections) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.connections_refused += 1;
      }
      // Refuse politely: a one-line 503, then close.
      const std::string refusal = RenderResponse(
          503, ErrorBody("connection limit reached"), true, "");
      [[maybe_unused]] const ssize_t n =
          write(fd, refusal.data(), refusal.size());
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t conn_id = next_conn_id_++;
    auto [it, inserted] =
        connections_.emplace(conn_id, Connection(options_.parser_limits));
    it->second.fd = fd;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.connections_accepted += 1;
  }
}

bool SladeServer::ReadAndDispatch(uint64_t conn_id, Connection* conn) {
  // Dispatch a request that completed earlier (pipelining) before
  // reading more bytes.
  if (conn->parser.state() != HttpParseState::kComplete) {
    char buf[16384];
    for (;;) {
      const ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.bytes_in += static_cast<uint64_t>(n);
        }
        conn->parser.Feed(buf, static_cast<size_t>(n));
        if (conn->parser.state() != HttpParseState::kNeedMore) break;
        continue;
      }
      if (n == 0) {
        // Peer closed. Anything half-parsed is abandoned.
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
  }

  switch (conn->parser.state()) {
    case HttpParseState::kNeedMore:
      return true;
    case HttpParseState::kError: {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.parse_errors += 1;
        if (conn->parser.error_code() >= 500) {
          stats_.responses_5xx += 1;
        } else {
          stats_.responses_4xx += 1;
        }
      }
      // A parse error poisons the byte stream: respond and close.
      conn->outbox += RenderResponse(conn->parser.error_code(),
                                     ErrorBody(conn->parser.error_message()),
                                     true, "");
      conn->close_after_write = true;
      return true;
    }
    case HttpParseState::kComplete: {
      WorkItem item;
      item.conn_id = conn_id;
      item.request = conn->parser.ConsumeRequest(nullptr);
      conn->busy = true;
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.requests += 1;
      }
      {
        std::lock_guard<std::mutex> lock(work_mutex_);
        work_queue_.push_back(std::move(item));
      }
      work_cv_.notify_one();
      return true;
    }
  }
  return true;
}

bool SladeServer::WriteOut(Connection* conn) {
  while (conn->out_offset < conn->outbox.size()) {
    const ssize_t n =
        write(conn->fd, conn->outbox.data() + conn->out_offset,
              conn->outbox.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  conn->outbox.clear();
  conn->out_offset = 0;
  return true;
}

void SladeServer::CloseConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  close(it->second.fd);
  connections_.erase(it);
}

void SladeServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_.load() || !work_queue_.empty();
      });
      if (work_queue_.empty()) return;  // stopping and drained
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    Finished done;
    done.conn_id = item.conn_id;
    bool close_connection = !item.request.keep_alive();
    done.response = Handle(item.request, &close_connection);
    done.close_after_write = close_connection;
    {
      std::lock_guard<std::mutex> lock(finished_mutex_);
      finished_.push_back(std::move(done));
    }
    NotifyLoop();
  }
}

std::string SladeServer::RenderResponse(int status_code,
                                        const std::string& body,
                                        bool close_connection,
                                        const std::string& extra_headers,
                                        bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " " +
                    ReasonPhrase(status_code) + "\r\n";
  out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += extra_headers;
  if (close_connection) out += "Connection: close\r\n";
  out += "\r\n";
  if (!head_only) out += body;
  return out;
}

std::string SladeServer::Handle(const HttpRequest& request,
                                bool* close_connection) {
  int status_code = 200;
  std::string body;
  std::string extra_headers;

  if (request.target == "/healthz") {
    if (request.method == "GET" || request.method == "HEAD") {
      JsonWriter w;
      w.BeginObject();
      w.Key("status");
      w.Value("ok");
      w.EndObject();
      body = std::move(w).Take();
    } else {
      status_code = 405;
      body = ErrorBody("use GET /healthz");
    }
  } else if (request.target == "/v1/stats") {
    if (request.method == "GET") {
      body = HandleStats();
    } else {
      status_code = 405;
      body = ErrorBody("use GET /v1/stats");
    }
  } else if (request.target == "/v1/submit") {
    if (request.method == "POST") {
      body = HandleSubmit(request, &status_code);
      if (status_code == 429) {
        extra_headers = "Retry-After: " +
                        std::to_string(options_.retry_after_seconds) + "\r\n";
      }
    } else {
      status_code = 405;
      body = ErrorBody("use POST /v1/submit");
    }
  } else {
    status_code = 404;
    body = ErrorBody("no route for '" + request.target + "'");
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (status_code < 300) {
      stats_.responses_2xx += 1;
    } else if (status_code < 500) {
      stats_.responses_4xx += 1;
    } else {
      stats_.responses_5xx += 1;
    }
    if (status_code == 429) stats_.rejected_429 += 1;
  }
  if (status_code >= 400 && status_code != 404 && status_code != 405 &&
      status_code != 409 && status_code != 429) {
    // Hard protocol-ish failures close; soft rejections keep the
    // connection for a retry.
    *close_connection = true;
  }
  // HEAD responses must not carry a body (only /healthz accepts HEAD,
  // but 405s and 404s on HEAD requests must obey this too).
  return RenderResponse(status_code, body, *close_connection, extra_headers,
                        /*head_only=*/request.method == "HEAD");
}

std::string SladeServer::HandleSubmit(const HttpRequest& request,
                                      int* status_code) {
  Result<JsonValue> doc = JsonValue::Parse(request.body);
  if (!doc.ok()) {
    *status_code = 400;
    return ErrorBody("invalid JSON: " + doc.status().message());
  }
  const JsonValue* requester = doc->Find("requester");
  const JsonValue* tasks_json = doc->Find("tasks");
  if (requester == nullptr || !requester->is_string() ||
      requester->string.empty()) {
    *status_code = 400;
    return ErrorBody("'requester' must be a non-empty string");
  }
  if (tasks_json == nullptr || !tasks_json->is_array() ||
      tasks_json->items.empty()) {
    *status_code = 400;
    return ErrorBody("'tasks' must be a non-empty array of threshold arrays");
  }
  std::string submission_id;
  if (const JsonValue* id_json = doc->Find("submission_id")) {
    if (!id_json->is_string() || id_json->string.empty()) {
      *status_code = 400;
      return ErrorBody("'submission_id' must be a non-empty string");
    }
    submission_id = id_json->string;
  }
  std::string platform_hint;
  if (const JsonValue* platform_json = doc->Find("platform")) {
    if (!platform_json->is_string() || platform_json->string.empty()) {
      *status_code = 400;
      return ErrorBody("'platform' must be a non-empty string");
    }
    platform_hint = platform_json->string;
  }
  std::vector<CrowdsourcingTask> tasks;
  tasks.reserve(tasks_json->items.size());
  for (const JsonValue& task_json : tasks_json->items) {
    if (!task_json.is_array()) {
      *status_code = 400;
      return ErrorBody("each task must be an array of thresholds in (0,1)");
    }
    std::vector<double> thresholds;
    thresholds.reserve(task_json.items.size());
    for (const JsonValue& t : task_json.items) {
      if (!t.is_number()) {
        *status_code = 400;
        return ErrorBody("each threshold must be a number in (0,1)");
      }
      thresholds.push_back(t.number);
    }
    Result<CrowdsourcingTask> task =
        CrowdsourcingTask::FromThresholds(std::move(thresholds));
    if (!task.ok()) {
      *status_code = 400;
      return ErrorBody(task.status().message());
    }
    tasks.push_back(std::move(*task));
  }

  // This blocks the worker until the owning micro-batch is solved (or the
  // submission is rejected / shed). That is intentional: under kBlock
  // backpressure a full queue becomes TCP backpressure on this
  // connection.
  std::future<Result<RequesterPlan>> future =
      engine_->Submit(requester->string, std::move(tasks),
                      std::move(submission_id), std::move(platform_hint));
  Result<RequesterPlan> plan = future.get();
  if (!plan.ok()) {
    const Status& status = plan.status();
    if (status.IsResourceExhausted()) {
      // Queue-full rejection, per-tenant quota, or a kShedOldest eviction
      // that picked this submission as the victim.
      *status_code = 429;
    } else if (status.IsInvalidArgument()) {
      *status_code = 400;
    } else if (status.IsNotFound()) {
      // Routing failed: the 'platform' hint (or the sticky/cheapest
      // policy) found no live platform to serve the submission.
      *status_code = 404;
    } else if (status.IsAlreadyExists()) {
      // The same submission_id is in flight right now (a *finished*
      // duplicate replays the original outcome as 200 below). The client
      // should wait for its first attempt rather than retry.
      *status_code = 409;
    } else {
      *status_code = 500;
    }
    return ErrorBody(status.message());
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("requester");
  w.Value(plan->requester_id);
  if (!plan->submission_id.empty()) {
    w.Key("submission_id");
    w.Value(plan->submission_id);
  }
  w.Key("duplicate");
  w.Value(plan->duplicate);
  w.Key("num_tasks");
  w.Value(static_cast<uint64_t>(plan->num_tasks()));
  w.Key("num_atomic_tasks");
  w.Value(static_cast<uint64_t>(plan->num_atomic_tasks()));
  w.Key("cost");
  w.Value(plan->cost);
  w.Key("bins_posted");
  w.Value(plan->bins_posted);
  w.Key("flush_id");
  w.Value(plan->flush_id);
  w.Key("latency_seconds");
  w.Value(plan->latency_seconds);
  if (!plan->platform.empty()) {
    // Registry-routed serving echoes where (and under which profile
    // epoch) the slice was solved.
    w.Key("platform");
    w.Value(plan->platform);
    w.Key("epoch");
    w.Value(plan->epoch);
  }
  w.EndObject();
  return std::move(w).Take();
}

std::string SladeServer::HandleStats() {
  const StreamingStats engine_stats = engine_->stats();
  const std::vector<TenantStats> tenants = engine_->tenant_stats();
  const ServerStats server_stats = stats();

  JsonWriter w;
  w.BeginObject();
  w.Key("engine");
  w.BeginObject();
  w.Key("submissions");
  w.Value(engine_stats.submissions);
  w.Key("tasks");
  w.Value(engine_stats.tasks);
  w.Key("atomic_tasks");
  w.Value(engine_stats.atomic_tasks);
  w.Key("flushes");
  w.Value(engine_stats.flushes);
  w.Key("flushes_by_size");
  w.Value(engine_stats.flushes_by_size);
  w.Key("flushes_by_deadline");
  w.Value(engine_stats.flushes_by_deadline);
  w.Key("flushes_by_drain");
  w.Value(engine_stats.flushes_by_drain);
  w.Key("solve_seconds");
  w.Value(engine_stats.solve_seconds);
  w.Key("total_cost");
  w.Value(engine_stats.total_cost);
  w.Key("rejected");
  w.Value(engine_stats.rejected);
  w.Key("rejected_tenant_quota");
  w.Value(engine_stats.rejected_tenant_quota);
  w.Key("shed");
  w.Value(engine_stats.shed);
  w.Key("blocked");
  w.Value(engine_stats.blocked);
  w.Key("queue_submissions");
  w.Value(engine_stats.queue_submissions);
  w.Key("queue_atomic_tasks");
  w.Value(engine_stats.queue_atomic_tasks);
  w.Key("queue_bytes");
  w.Value(engine_stats.queue_bytes);
  w.Key("duplicate_hits");
  w.Value(engine_stats.duplicate_hits);
  w.EndObject();

  const CacheStats cache_stats = engine_->cache().stats();
  w.Key("opq_cache");
  w.BeginObject();
  w.Key("hits");
  w.Value(cache_stats.hits);
  w.Key("misses");
  w.Value(cache_stats.misses);
  w.Key("builds");
  w.Value(cache_stats.builds);
  w.Key("entries");
  w.Value(cache_stats.entries);
  w.Key("bytes");
  w.Value(cache_stats.bytes);
  w.Key("build_seconds");
  w.Value(cache_stats.build_seconds);
  w.EndObject();

  if (options_.journal != nullptr) {
    const JournalStats journal_stats = options_.journal->stats();
    w.Key("durability");
    w.BeginObject();
    w.Key("records_appended");
    w.Value(journal_stats.wal.records_appended);
    w.Key("bytes_appended");
    w.Value(journal_stats.wal.bytes_appended);
    w.Key("fsyncs");
    w.Value(journal_stats.wal.fsyncs);
    w.Key("commit_batches");
    w.Value(journal_stats.wal.commit_batches);
    w.Key("commit_batch_p50");
    w.Value(journal_stats.wal.commit_batch_p50);
    w.Key("commit_batch_p95");
    w.Value(journal_stats.wal.commit_batch_p95);
    w.Key("commit_batch_max");
    w.Value(journal_stats.wal.commit_batch_max);
    w.Key("segments_created");
    w.Value(journal_stats.wal.segments_created);
    w.Key("segments_deleted");
    w.Value(journal_stats.wal.segments_deleted);
    w.Key("active_segment");
    w.Value(journal_stats.wal.active_segment);
    w.Key("admits");
    w.Value(journal_stats.admits);
    w.Key("completes");
    w.Value(journal_stats.completes);
    w.Key("rejects");
    w.Value(journal_stats.rejects);
    w.Key("checkpoints");
    w.Value(journal_stats.checkpoints);
    w.Key("append_errors");
    w.Value(journal_stats.append_errors);
    w.Key("live_submissions");
    w.Value(journal_stats.live_submissions);
    w.Key("retained_outcomes");
    w.Value(journal_stats.retained_outcomes);
    w.Key("recovery");
    w.BeginObject();
    w.Key("records_replayed");
    w.Value(journal_stats.recovery.records_replayed);
    w.Key("segments_scanned");
    w.Value(journal_stats.recovery.segments_scanned);
    w.Key("truncated");
    w.Value(journal_stats.recovery.truncated);
    w.Key("truncated_bytes");
    w.Value(journal_stats.recovery.truncated_bytes);
    w.Key("pending_recovered");
    w.Value(journal_stats.recovery.pending_recovered);
    w.Key("outcomes_recovered");
    w.Value(journal_stats.recovery.outcomes_recovered);
    w.Key("clean_shutdown");
    w.Value(journal_stats.recovery.clean_shutdown);
    w.EndObject();
    w.EndObject();
  }

  if (const ProfileRegistry* registry = engine_->options().registry) {
    // Multi-platform serving: per-platform routing/billing counters, the
    // platform's current profile epoch, and the drift the last
    // recalibration measured.
    w.Key("platforms");
    w.BeginArray();
    for (const PlatformStats& platform : registry->stats()) {
      w.BeginObject();
      w.Key("platform");
      w.Value(platform.platform_id);
      w.Key("epoch");
      w.Value(platform.epoch);
      w.Key("live");
      w.Value(platform.live);
      w.Key("promotions");
      w.Value(platform.promotions);
      w.Key("routed_submissions");
      w.Value(platform.routed_submissions);
      w.Key("routed_tasks");
      w.Value(platform.routed_tasks);
      w.Key("routed_atomic_tasks");
      w.Value(platform.routed_atomic_tasks);
      w.Key("billed_cost");
      w.Value(platform.billed_cost);
      w.Key("answers_folded");
      w.Value(platform.answers_folded);
      w.Key("last_recalibration_delta");
      w.Value(platform.last_recalibration_delta);
      w.EndObject();
    }
    w.EndArray();
  }

  w.Key("tenants");
  w.BeginArray();
  for (const TenantStats& tenant : tenants) {
    w.BeginObject();
    w.Key("tenant");
    w.Value(tenant.tenant);
    w.Key("weight");
    w.Value(tenant.weight);
    w.Key("submissions");
    w.Value(tenant.submissions);
    w.Key("tasks");
    w.Value(tenant.tasks);
    w.Key("atomic_tasks");
    w.Value(tenant.atomic_tasks);
    w.Key("delivered");
    w.Value(tenant.delivered);
    w.Key("flushes");
    w.Value(tenant.flushes);
    w.Key("rejected_quota");
    w.Value(tenant.rejected_quota);
    w.Key("shed");
    w.Value(tenant.shed);
    w.Key("billed_cost");
    w.Value(tenant.billed_cost);
    w.Key("platform_cost");
    w.Value(tenant.platform_cost);
    w.Key("pending_submissions");
    w.Value(tenant.pending_submissions);
    w.Key("pending_atomic_tasks");
    w.Value(tenant.pending_atomic_tasks);
    w.Key("pending_bytes");
    w.Value(tenant.pending_bytes);
    w.EndObject();
  }
  w.EndArray();

  w.Key("server");
  w.BeginObject();
  w.Key("connections_accepted");
  w.Value(server_stats.connections_accepted);
  w.Key("connections_refused");
  w.Value(server_stats.connections_refused);
  w.Key("requests");
  w.Value(server_stats.requests);
  w.Key("responses_2xx");
  w.Value(server_stats.responses_2xx);
  w.Key("responses_4xx");
  w.Value(server_stats.responses_4xx);
  w.Key("responses_5xx");
  w.Value(server_stats.responses_5xx);
  w.Key("rejected_429");
  w.Value(server_stats.rejected_429);
  w.Key("parse_errors");
  w.Value(server_stats.parse_errors);
  w.Key("bytes_in");
  w.Value(server_stats.bytes_in);
  w.Key("bytes_out");
  w.Value(server_stats.bytes_out);
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace slade
