#include "http.hpp"

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

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>
#include <thread>

#include "common.hpp"
#include "obs/serve/http_parser.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " +
         std::error_code(errno, std::generic_category()).message();
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string get_request(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string post_request(const std::string& path, const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

HttpReply http_exchange(std::uint16_t port, const std::string& request,
                        int timeout_ms) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    reply.error = errno_text("socket");
    return reply;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr generic{};
  std::memcpy(&generic, &addr, sizeof(addr));
  int rc = 0;
  do {
    rc = ::connect(fd, &generic, sizeof(addr));
  } while (rc < 0 && errno == EINTR);

  std::string buffer;
  if (rc < 0) {
    reply.error = errno_text("connect");
  } else if (!send_all(fd, request)) {
    reply.error = errno_text("send");
  } else {
    std::size_t head_end = std::string::npos;
    bool has_length = false;
    std::size_t length = 0;
    char chunk[16384];
    for (;;) {
      if (has_length && buffer.size() >= head_end + 4 + length) break;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        reply.error = errno_text("recv");
        break;
      }
      if (n == 0) break;  // the server closed after the response
      buffer.append(chunk, static_cast<std::size_t>(n));
      if (head_end == std::string::npos) {
        head_end = buffer.find("\r\n\r\n");
        if (head_end != std::string::npos)
          has_length = obs::serve::parse_content_length(
                           buffer, buffer.find("\r\n") + 2, head_end,
                           length) == obs::serve::ContentLengthStatus::kOk;
      }
    }
    if (reply.error.empty()) {
      if (head_end == std::string::npos || buffer.compare(0, 9, "HTTP/1.1 ") != 0) {
        reply.error = "malformed response";
      } else {
        reply.status = std::atoi(buffer.c_str() + 9);
        reply.body = buffer.substr(head_end + 4);
        if (has_length && reply.body.size() != length) {
          reply.error = "truncated response body";
          reply.status = 0;
        }
      }
    }
  }
  const linger abortive{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
  ::close(fd);
  return reply;
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void ServerProcess::read_output(int timeout_ms) {
  if (out_fd_ < 0) return;
  pollfd pfd{out_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return;
  char chunk[4096];
  const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
  if (n > 0) {
    output_.append(chunk, static_cast<std::size_t>(n));
  } else if (n == 0 || errno != EINTR) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool ServerProcess::start(const std::vector<std::string>& argv,
                          const std::string& stderr_path, double timeout_s,
                          std::string& error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    error = errno_text("pipe");
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    kill_and_reap();
    error = "posix_spawn " + argv[0] + ": " +
            std::error_code(rc, std::generic_category()).message();
    return false;
  }

  static const char kBanner[] = "serving solves on 127.0.0.1:";
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < timeout_s) {
    const std::size_t at = output_.find(kBanner);
    if (at != std::string::npos) {
      const std::size_t digits = at + sizeof(kBanner) - 1;
      if (output_.find('\n', digits) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::atoi(output_.c_str() + digits));
        if (port_ != 0) return true;
        error = "unparseable serving banner";
        kill_and_reap();
        return false;
      }
    }
    if (out_fd_ < 0) {
      error = "server exited before its serving banner (see " + stderr_path + ")";
      kill_and_reap();
      return false;
    }
    read_output(50);
  }
  error = "no serving banner within the start timeout";
  kill_and_reap();
  return false;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return -1.0;
}

bool ServerProcess::stop(double timeout_s, bool& wedged) {
  wedged = false;
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const Clock::time_point begin = Clock::now();
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (seconds_since(begin) > timeout_s) {
      wedged = true;
      kill_and_reap();
      return false;
    }
    if (out_fd_ >= 0)
      read_output(20);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  pid_ = -1;
  while (out_fd_ >= 0) read_output(1000);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
