// Spawning and stopping hwf_serve, and the protocol exchanges with it.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "dist/wire_client.h"
#include "servebench.h"

extern char** environ;

namespace servebench {

struct Server::Connection {
  explicit Connection(hwf::dist::WireClientOptions options)
      : client(std::move(options)) {}
  hwf::dist::WireClient client;
  int stdout_fd = -1;
};

std::unique_ptr<Server> Server::Start(const std::string& binary, bool cache) {
  // Build argv and envp before forking: the child only execs.
  std::vector<std::string> args = {binary, "--port", "0", "--cache_bytes",
                                   cache ? "256M" : "0"};
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "HWF_", 4) != 0) env.emplace_back(*entry);
  }
  env.push_back("HWF_THREADS=" + std::to_string(kPoolThreads));
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (std::string& entry : env) envp.push_back(entry.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::perror("servebench: pipe");
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("servebench: fork");
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<Server> server(new Server());
  server->pid_ = pid;

  // Wait (bounded) for "LISTENING <port>".
  std::string line;
  const Clock::time_point start = Clock::now();
  while (line.find('\n') == std::string::npos) {
    pollfd poll_fd{pipe_fds[0], POLLIN, 0};
    const int remaining_ms =
        static_cast<int>(30000 - SecondsSince(start) * 1000);
    if (remaining_ms <= 0 || ::poll(&poll_fd, 1, remaining_ms) <= 0) break;
    char buffer[256];
    const ssize_t got = ::read(pipe_fds[0], buffer, sizeof(buffer));
    if (got <= 0) break;
    line.append(buffer, static_cast<size_t>(got));
  }
  int port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %d", &port) != 1 || port <= 0) {
    std::fprintf(stderr, "servebench: %s did not report a port\n",
                 binary.c_str());
    ::close(pipe_fds[0]);
    return nullptr;  // the destructor stops the process
  }
  hwf::dist::WireClientOptions options;
  options.port = port;
  options.request_timeout_seconds = 120;
  server->connection_ = std::make_unique<Connection>(options);
  server->connection_->stdout_fd = pipe_fds[0];
  const hwf::Status connected = server->connection_->client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "servebench: connect: %s\n",
                 connected.ToString().c_str());
    return nullptr;
  }
  return server;
}

Server::~Server() { Stop(); }

bool Server::Exchange(const std::string& command, std::string* payload,
                      std::string* header_extra) {
  const hwf::Status status =
      connection_->client.Exchange(command, payload, header_extra);
  if (!status.ok()) {
    std::fprintf(stderr, "servebench: %.60s: %s\n", command.c_str(),
                 status.ToString().c_str());
  }
  return status.ok();
}

bool Server::ExchangeWithBody(const std::string& command,
                              const std::string& body, std::string* payload) {
  const hwf::Status status =
      connection_->client.ExchangeWithBody(command, body, payload);
  if (!status.ok()) {
    std::fprintf(stderr, "servebench: %s: %s\n", command.c_str(),
                 status.ToString().c_str());
  }
  return status.ok();
}

double Server::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

void Server::Stop() {
  if (connection_ != nullptr) {
    if (connection_->client.connected()) {
      std::string ignored;
      connection_->client.Exchange("QUIT", &ignored);
      connection_->client.Close();
    }
    if (connection_->stdout_fd >= 0) ::close(connection_->stdout_fd);
    connection_.reset();
  }
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int waited_ms = 0; ::waitpid(pid_, &status, WNOHANG) == 0;
       waited_ms += 10) {
    if (waited_ms == 30000) ::kill(pid_, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pid_ = -1;
}

double JsonNumber(std::string_view json, std::string_view key) {
  std::string quoted = "\"";
  quoted.append(key).append("\":");
  size_t at = json.find(quoted);
  if (at == std::string_view::npos) return NAN;
  at += quoted.size();
  while (at < json.size() && json[at] == ' ') ++at;
  double value = NAN;
  std::from_chars(json.data() + at, json.data() + json.size(), value);
  return value;
}

}  // namespace servebench
