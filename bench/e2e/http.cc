// Loopback HTTP client, the `slade_cli serve` child process, and the
// open- and closed-loop load generators.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "e2e.h"

extern char** environ;

namespace slade_e2e {

namespace {

size_t HeaderValue(const std::string& head, size_t header_end,
                   const char* lower_name, std::string* value) {
  std::string lower = head.substr(0, header_end);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const size_t pos = lower.find(lower_name);
  if (pos == std::string::npos) return std::string::npos;
  const size_t begin = pos + std::strlen(lower_name);
  const size_t end = lower.find("\r\n", begin);
  *value = lower.substr(begin, end - begin);
  return pos;
}

}  // namespace

Reply ParseReply(int status, const std::string& body) {
  Reply reply;
  reply.status = status;
  if (status < 200 || status >= 300) return reply;
  const size_t cost = body.find("\"cost\":");
  reply.cost = cost == std::string::npos
                   ? -1.0
                   : std::strtod(body.c_str() + cost + 7, nullptr);
  reply.duplicate = body.find("\"duplicate\":true") != std::string::npos;
  const size_t platform = body.find("\"platform\":\"");
  if (platform != std::string::npos) {
    const size_t begin = platform + 12;
    reply.platform = body.substr(begin, body.find('"', begin) - begin);
  }
  return reply;
}

// ------------------------------------------------------------- HttpClient

HttpClient::~HttpClient() { Close(); }

bool HttpClient::Connect() {
  if (fd_ >= 0) return true;
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A wedged server must fail the run, not hang it past its time cap.
  timeval timeout{30, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  residual_.clear();
}

int HttpClient::RoundTrip(const std::string& request, std::string* body) {
  if (!Connect()) return 0;
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return 0;
    }
    sent += static_cast<size_t>(n);
  }
  std::string head = std::move(residual_);
  residual_.clear();
  size_t header_end;
  char buf[16384];
  while ((header_end = head.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0 || head.size() > (1u << 20)) {
      Close();
      return 0;
    }
    head.append(buf, static_cast<size_t>(n));
  }
  const size_t space = head.find(' ');
  const int status =
      space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
  std::string value;
  const size_t body_len =
      HeaderValue(head, header_end, "content-length:", &value) ==
              std::string::npos
          ? 0
          : std::strtoull(value.c_str(), nullptr, 10);
  const size_t body_begin = header_end + 4;
  while (head.size() < body_begin + body_len) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      Close();
      return 0;
    }
    head.append(buf, static_cast<size_t>(n));
  }
  if (body != nullptr) body->assign(head, body_begin, body_len);
  residual_ = head.substr(body_begin + body_len);
  if (HeaderValue(head, header_end, "connection:", &value) !=
          std::string::npos &&
      value.find("close") != std::string::npos) {
    Close();
  }
  return status;
}

int HttpClient::Get(const std::string& target, std::string* body) {
  return RoundTrip("GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                   body);
}

// ---------------------------------------------------------- ServerProcess

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path,
                             const std::string& preload) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LD_PRELOAD=", 11) != 0) env_strings.push_back(*e);
  }
  if (!preload.empty()) env_strings.push_back("LD_PRELOAD=" + preload);
  std::vector<char*> env;
  for (std::string& s : env_strings) env.push_back(s.data());
  env.push_back(nullptr);

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) throw Fatal("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const int rc = posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr,
                             args.data(), env.data());
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    pid_ = -1;
    throw Fatal("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  stdout_fd_ = pipe_fds[0];

  // The server prints "listening on ADDR:PORT (...)" once its socket is
  // bound, after any WAL recovery.
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    const size_t pos = text.find("listening on ");
    if (pos != std::string::npos && text.find('\n', pos) != std::string::npos) {
      const size_t colon = text.find(':', pos + 13);
      port_ = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
      break;
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    char buf[4096];
    ssize_t n = 0;
    if (wait_ms <= 0 || poll(&pfd, 1, wait_ms) <= 0 ||
        (n = read(stdout_fd_, buf, sizeof(buf))) <= 0) {
      Stop(SIGKILL);
      std::ifstream log(log_path);
      std::stringstream err;
      err << log.rdbuf();
      throw Fatal("server did not come up: " + text + err.str());
    }
    text.append(buf, static_cast<size_t>(n));
  }

  // The dynamic loader only warns about a preload it cannot load.
  if (!preload.empty()) {
    std::ifstream maps("/proc/" + std::to_string(pid_) + "/maps");
    std::stringstream mapped;
    mapped << maps.rdbuf();
    if (mapped.str().find(std::filesystem::canonical(preload).string()) ==
        std::string::npos) {
      Stop(SIGKILL);
      throw Fatal("server did not load " + preload);
    }
  }
}

ServerProcess::~ServerProcess() { Stop(SIGKILL); }

void ServerProcess::Stop(int signal) {
  if (pid_ > 0) {
    kill(pid_, signal);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

std::unique_ptr<ServerProcess> StartServer(
    const std::vector<std::string>& argv, const std::string& log_path,
    const std::string& preload, double* setup_seconds) {
  const auto start = Clock::now();
  auto server = std::make_unique<ServerProcess>(argv, log_path, preload);
  HttpClient client(server->port());
  std::string body;
  while (client.Get("/healthz", &body) != 200) {
    if (Clock::now() - start > std::chrono::seconds(60)) {
      throw Fatal("server never answered /healthz");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *setup_seconds = Seconds(Clock::now() - start);
  return server;
}

slade::JsonValue FetchStats(uint16_t port) {
  HttpClient client(port);
  std::string body;
  if (client.Get("/v1/stats", &body) != 200) throw Fatal("GET /v1/stats");
  auto doc = slade::JsonValue::Parse(body);
  if (!doc.ok()) throw Fatal("/v1/stats: " + doc.status().ToString());
  return std::move(*doc);
}

double StatsNumber(const slade::JsonValue& stats, const std::string& path) {
  const slade::JsonValue* node = &stats;
  size_t begin = 0;
  while (node != nullptr && begin <= path.size()) {
    const size_t dot = std::min(path.find('.', begin), path.size());
    node = node->Find(path.substr(begin, dot - begin));
    begin = dot + 1;
  }
  if (node == nullptr) return 0.0;
  if (node->is_bool()) return node->boolean ? 1.0 : 0.0;
  return node->is_number() ? node->number : 0.0;
}

// ---------------------------------------------------------- load phases

namespace {

void CheckLoadShape(size_t connections) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (connections == 0 || connections > kMaxLoadThreads ||
      connections > cores) {
    throw Fatal("load generator: " + std::to_string(connections) +
                " connections exceed the " +
                std::to_string(std::min(kMaxLoadThreads, cores)) +
                "-thread budget");
  }
}

}  // namespace

std::vector<Sample> MergeSamples(std::vector<std::vector<Sample>> parts) {
  std::vector<Sample> out;
  for (auto& part : parts) {
    for (Sample& s : part) out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return out;
}

std::vector<Sample> RunOpenLoop(uint16_t port,
                                const std::vector<double>& schedule,
                                const std::vector<std::string>& requests,
                                size_t connections) {
  CheckLoadShape(connections);
  std::vector<std::vector<Sample>> parts(connections);
  std::atomic<size_t> next{0};
  // Connections open (and prove live) before the first due time.
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  RunOnThreads(connections, [&](size_t c) {
    HttpClient client(port);
    std::string body;
    client.Get("/healthz", &body);
    parts[c].reserve(schedule.size() / connections + 64);
    for (;;) {
      const size_t k = next.fetch_add(1);
      if (k >= schedule.size()) break;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(schedule[k]));
      Sample sample;
      sample.index = k;
      sample.due_s = schedule[k];
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        sample.lag_ms = Millis(Clock::now() - due);
      }
      const int status = client.RoundTrip(requests[k], &body);
      const auto done = Clock::now();
      sample.latency_ms = Millis(done - due);
      sample.end_s = Seconds(done - start);
      sample.reply = ParseReply(status, body);
      parts[c].push_back(std::move(sample));
    }
  });
  return MergeSamples(std::move(parts));
}

std::vector<Sample> RunClosedLoop(
    uint16_t port, double seconds, size_t connections,
    const std::function<std::string(uint64_t)>& make_request) {
  CheckLoadShape(connections);
  std::vector<std::vector<Sample>> parts(connections);
  std::atomic<uint64_t> next{0};
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  RunOnThreads(connections, [&](size_t c) {
    HttpClient client(port);
    std::string body;
    while (Clock::now() < stop) {
      Sample sample;
      sample.index = next.fetch_add(1);
      const std::string request = make_request(sample.index);
      const auto sent = Clock::now();
      const int status = client.RoundTrip(request, &body);
      const auto done = Clock::now();
      sample.latency_ms = Millis(done - sent);
      sample.due_s = Seconds(sent - start);
      sample.end_s = Seconds(done - start);
      sample.reply = ParseReply(status, body);
      parts[c].push_back(std::move(sample));
    }
  });
  return MergeSamples(std::move(parts));
}

double LagP99Ms(const std::vector<Sample>& samples) {
  std::vector<double> lags;
  for (const Sample& s : samples) {
    if (s.lag_ms >= 0.0) lags.push_back(s.lag_ms);
  }
  return Quantile(std::move(lags), 0.99);
}

}  // namespace slade_e2e
